"""The trace cache fetch architecture (§2.2, Fig. 3).

Primary path: a cascaded **next trace predictor** produces a trace
descriptor per cycle into the FTQ; the **trace cache** (Table 2: 32KB,
2-way, instruction storage only) supplies the whole trace — crossing
taken branches — at up to ``width`` instructions per cycle.

Secondary path: on a trace cache miss, the predicted trace is rebuilt
from the instruction cache one segment (≤ one taken branch) per cycle;
on a trace *predictor* miss the engine fetches from the instruction
cache guided by the back-up BTB (Table 2: 1K-entry, 4-way) with 2-bit
direction counters — the redundant second prediction/storage path whose
cost the stream architecture avoids.

Traces are built by a fill unit at *commit* (wrong-path instructions
never enter the trace cache) and capped at 16 instructions / 3
conditional branches / a return or indirect jump.  **Selective trace
storage** (Ramirez et al., "red & blue traces") keeps traces out of the
trace cache unless they cross a taken branch: purely sequential traces
are served equally well by the instruction cache, so storing them would
only waste trace cache space.  **Partial matching** is available behind
a flag but disabled by default — the paper found it counter-productive
with layout-optimized codes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.history import PathHistory
from repro.branch.ras import ReturnAddressStack
from repro.common.params import MachineParams
from repro.common.stats import CounterBag
from repro.common.types import INSTRUCTION_BYTES, BranchKind
from repro.fetch.base import FetchEngine, FetchFragment, scan_run
from repro.fetch.ftq import FetchRequest, FetchTargetQueue
from repro.fetch.trace_predictor import (
    MAX_TRACE_BRANCHES,
    MAX_TRACE_LENGTH,
    NextTracePredictor,
    TraceDescriptor,
    TracePredictorConfig,
)
from repro.isa.program import Program
from repro.isa.trace import DynBlock
from repro.memory.hierarchy import MemoryHierarchy


class TraceStore:
    """The trace cache proper: set-associative storage of descriptors.

    Indexed by the trace start address; the tag includes the conditional
    outcome bits, so differently-shaped traces from one start address
    occupy distinct entries (no path associativity, per the paper's
    chosen configuration).
    """

    def __init__(self, entries: int = 512, assoc: int = 2) -> None:
        if entries % assoc:
            raise ValueError("entries must be divisible by assoc")
        self.num_sets = entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("set count must be a power of two")
        self.assoc = assoc
        # Hot-path event counters as plain ints; see the stats property.
        self.lookups = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.selective_skips = 0
        self._sets: List[List[TraceDescriptor]] = [
            [] for _ in range(self.num_sets)
        ]
        self._mask = self.num_sets - 1

    def _set_of(self, start: int) -> List[TraceDescriptor]:
        return self._sets[(start >> 2) & self._mask]

    def lookup(self, descriptor: TraceDescriptor) -> bool:
        """Exact-identity probe (start + outcomes)."""
        ways = self._set_of(descriptor.start)
        self.lookups += 1
        for i, stored in enumerate(ways):
            if (stored.start == descriptor.start
                    and stored.outcomes == descriptor.outcomes):
                if i:
                    ways.insert(0, ways.pop(i))
                return True
        self.misses += 1
        return False

    @property
    def stats(self) -> CounterBag:
        """Counters in mergeable CounterBag form (built on demand)."""
        return CounterBag({
            "lookups": self.lookups,
            "misses": self.misses,
            "fills": self.fills,
            "evictions": self.evictions,
            "selective_skips": self.selective_skips,
        })

    def partial_match(
        self, descriptor: TraceDescriptor
    ) -> Optional[TraceDescriptor]:
        """Longest stored trace from the same start whose outcomes agree
        with a prefix of the predicted outcomes (partial matching)."""
        ways = self._set_of(descriptor.start)
        best: Optional[TraceDescriptor] = None
        for stored in ways:
            if stored.start != descriptor.start:
                continue
            k = len(stored.outcomes)
            if descriptor.outcomes[:k] == stored.outcomes:
                if best is None or stored.length > best.length:
                    best = stored
        return best

    def insert(self, descriptor: TraceDescriptor) -> None:
        ways = self._set_of(descriptor.start)
        for i, stored in enumerate(ways):
            if (stored.start == descriptor.start
                    and stored.outcomes == descriptor.outcomes):
                ways[i] = descriptor
                ways.insert(0, ways.pop(i))
                return
        ways.insert(0, descriptor)
        self.fills += 1
        if len(ways) > self.assoc:
            ways.pop()
            self.evictions += 1


class _FillBuffer:
    """Commit-side fill unit: the pieces of the trace being built.

    The fill unit appends each committed :class:`DynBlock` (walkers
    intern them, so one object stands for every occurrence of a block
    with one outcome) to ``pieces``; where the length cap splits a
    block, it appends a ``(dyn, off, take)`` piece for the ``take``
    instructions from offset ``off`` instead.  A trace is then fixed by
    ``(pieces, terminal_kind, next_addr)``, the key ``finalize`` interns
    descriptors by: loopy codes commit the same few traces millions of
    times, so segments, outcomes and call returns are derived
    (:meth:`derive`) only when that lookup misses, and the predictor's
    equality checks mostly hit the identity fast path.  (Two piece
    sequences can fix one trace: the head of a block cut by the cap is
    the same whichever way the block's branch went.  Such descriptors
    are equal but distinct objects.)  The intern table is bounded
    (cleared) so pathological trace variety cannot grow it without
    limit.

    ``length`` counts the instructions and ``conds`` the conditional
    branches in ``pieces``; ``mispredicted`` is set when a block of the
    trace was.
    """

    def __init__(self) -> None:
        self._intern: dict = {}
        self.pieces: list = []
        self.length = 0
        self.conds = 0
        self.mispredicted = False

    def finalize(self, terminal_kind: BranchKind,
                 next_addr: int) -> TraceDescriptor:
        """The descriptor of the buffered trace; empties the buffer."""
        key = (tuple(self.pieces), terminal_kind, next_addr)
        descriptor = self._intern.get(key)
        if descriptor is None:
            descriptor = self.derive(key)
        self.pieces.clear()
        self.length = 0
        self.conds = 0
        self.mispredicted = False
        return descriptor

    def derive(self, key: tuple) -> TraceDescriptor:
        """Build the descriptor of an intern ``key`` and intern it.

        Contiguous pieces merge into one segment; a piece that ends its
        block carries the block's branch, whose outcome (conditional)
        or return address (call) the trace records.
        """
        pieces, terminal_kind, next_addr = key
        segments: List[List[int]] = []  # [addr, count] pairs
        outcomes = []
        call_returns = []
        length = 0
        for piece in pieces:
            if piece.__class__ is tuple:
                dyn, off, take = piece
            else:
                dyn, off, take = piece, 0, piece.size
            addr = dyn.addr + off * INSTRUCTION_BYTES
            if segments and (
                segments[-1][0] + segments[-1][1] * INSTRUCTION_BYTES == addr
            ):
                segments[-1][1] += take
            else:
                segments.append([addr, take])
            length += take
            if off + take == dyn.size:
                if dyn.kind is BranchKind.COND:
                    outcomes.append(dyn.taken)
                elif dyn.kind is BranchKind.CALL:
                    call_returns.append(dyn.lb.fallthrough_addr)
        intern = self._intern
        if len(intern) > 4096:  # deterministic bound
            intern.clear()
        descriptor = intern[key] = TraceDescriptor(
            start=segments[0][0],
            outcomes=tuple(outcomes),
            segments=tuple([(a, n) for a, n in segments]),
            length=length,
            terminal_kind=terminal_kind,
            next_addr=next_addr,
            call_returns=tuple(call_returns),
        )
        return descriptor


#: What fills a fetch-plan fragment's prediction fields: nothing, the
#: request's ``ckpt_pre``, or its ``(pred_next, ckpt, payload)``.
PLAN_NONE, PLAN_PRE, PLAN_LAST = 0, 1, 2


def fetch_plan(program: Program, descriptor: TraceDescriptor,
               width: int) -> tuple:
    """The cycles of delivering ``descriptor`` from the trace cache.

    A trace-cache hit fills every cycle with ``width`` instructions,
    crossing taken branches, until the trace ends, so the fragments of
    each cycle depend only on the descriptor, the width and the
    program, except for the request's prediction fields.  The plan is
    the first of those cycles, as linked steps ``(frags, emitted,
    seg_idx, seg_off, next_step)``: ``frags`` holds one ``(code, start,
    count, pred_next)`` skeleton per fragment (``code`` one of
    ``PLAN_NONE``, ``PLAN_PRE`` and ``PLAN_LAST``; ``pred_next`` None
    under ``PLAN_LAST``), ``emitted`` their instruction total,
    ``seg_idx``/``seg_off`` the segment cursor after the cycle, and
    ``next_step`` None on the last cycle.

    The split rules are those of
    :meth:`TraceCacheFetchEngine._emit_run`, which stays the plan's
    oracle: a fragment ends at every interior conditional (implicitly
    not taken) and at every segment end, and a cycle that ends inside
    a segment ends its last fragment sequentially.
    """
    ib = INSTRUCTION_BYTES
    segments = descriptor.segments
    last = len(segments) - 1
    cycles = []
    frags: list = []
    budget = width
    for seg_idx, (seg_addr, seg_len) in enumerate(segments):
        off = 0
        while off < seg_len:
            take = min(budget, seg_len - off)
            addr = seg_addr + off * ib
            end = addr + take * ib
            off += take
            budget -= take
            at_boundary = off == seg_len
            skip_addr = end - ib if at_boundary else -1
            frag_start = addr
            for baddr, lb in scan_run(program, addr, take)[0]:
                if baddr != skip_addr and lb.kind is BranchKind.COND:
                    frags.append((PLAN_PRE, frag_start,
                                  (baddr - frag_start) // ib + 1, baddr + ib))
                    frag_start = baddr + ib
            count = (end - frag_start) // ib
            if not at_boundary:
                if count:
                    frags.append((PLAN_NONE, frag_start, count, end))
            elif seg_idx == last:
                frags.append((PLAN_LAST, frag_start, count, None))
            else:
                frags.append((PLAN_PRE, frag_start, count,
                              segments[seg_idx + 1][0]))
            if not budget or (at_boundary and seg_idx == last):
                cursor = (seg_idx + 1, 0) if at_boundary else (seg_idx, off)
                cycles.append((tuple(frags), width - budget) + cursor)
                frags = []
                budget = width
    plan = None
    for cycle in reversed(cycles):
        plan = cycle + (plan,)
    return plan


class TraceCacheFetchEngine(FetchEngine):
    """Trace cache + next trace predictor + back-up BTB path."""

    name = "trace"

    def __init__(
        self,
        program: Program,
        machine: MachineParams,
        mem: MemoryHierarchy,
        predictor_config: TracePredictorConfig | None = None,
        tc_entries: int = 512,
        tc_assoc: int = 2,
        btb_entries: int = 1024,
        btb_assoc: int = 4,
        ras_depth: int = 8,
        selective_storage: bool = True,
        partial_matching: bool = False,
    ) -> None:
        super().__init__(program, machine, mem)
        self.predictor = NextTracePredictor(predictor_config)
        self.trace_cache = TraceStore(tc_entries, tc_assoc)
        self.btb = BranchTargetBuffer(btb_entries, btb_assoc)
        self.ras = ReturnAddressStack(ras_depth)
        self.history = PathHistory(self.predictor.config.dolc.depth)
        self.ftq = FetchTargetQueue(machine.core.ftq_entries)
        self.selective_storage = selective_storage
        self.partial_matching = partial_matching
        self.predict_addr = program.entry_address
        self._fill = _FillBuffer()
        # Progress through the head request's descriptor.
        self._cur_req: Optional[FetchRequest] = None
        self._seg_idx = 0
        self._seg_off = 0
        self._tc_hit: Optional[bool] = None
        #: The accelerated kernel's next step of the head request's
        #: fetch plan (see :func:`fetch_plan`) while the trace cache
        #: delivers it; the interpreted engine does not use it.
        self._plan: Optional[tuple] = None
        #: Instructions of the current request still serviceable from a
        #: partially-matched stored trace (partial matching only).
        self._prefix_left = 0
        # Speculative fill tracker: during build-mode fetch the engine
        # emulates the fill unit's trace boundaries so the speculative
        # trace-path history stays aligned with the commit-side pushes.
        self._spec_fill_start = program.entry_address
        self._spec_fill_len = 0
        self._spec_fill_conds = 0

    # ------------------------------------------------------------------
    def cycle(self, now: int) -> Optional[List[FetchFragment]]:
        if self._waiting_resolve:
            return None
        queue = self.ftq._queue
        request = queue[0] if queue else None
        predictor_missed = self._predict_stage(now)
        if now < self._busy_until:
            return None
        if request is not None:
            return self._trace_fetch_stage(now, request)
        if predictor_missed and not self.ftq._queue:
            return self._build_fetch_stage(now)
        return None

    # -- next trace predictor stage -----------------------------------------
    def _predict_stage(self, now: int) -> bool:
        """Returns True when the predictor missed this cycle."""
        ftq = self.ftq
        if len(ftq._queue) >= ftq.capacity:
            return False
        pc = self.predict_addr
        descriptor = self.predictor.predict(self.history.spec_view(), pc)
        if descriptor is None:
            self.stats.add("trace_pred_misses")
            return True
        self.stats.add("trace_pred_hits")
        ras_pre = self.ras.checkpoint()
        self.history.spec_push(descriptor.start)
        hist_snap = tuple(self.history.spec)
        for return_addr in descriptor.call_returns:
            self.ras.push(return_addr)
        if descriptor.terminal_kind is BranchKind.RET:
            nxt = self.ras.pop()
        else:
            nxt = descriptor.next_addr
        ckpt = (self.ras.checkpoint(), hist_snap)
        ckpt_pre = (ras_pre, hist_snap)
        terminal = (
            descriptor.terminal_kind
            if descriptor.terminal_kind is not BranchKind.NONE
            else None
        )
        self.ftq.push(
            FetchRequest(
                descriptor.start, descriptor.length, terminal, nxt,
                None, ckpt, ckpt_pre=ckpt_pre, descriptor=descriptor,
            )
        )
        self.predict_addr = nxt
        self._spec_fill_reset(nxt)
        return False

    def _spec_fill_reset(self, addr: int) -> None:
        self._spec_fill_start = addr
        self._spec_fill_len = 0
        self._spec_fill_conds = 0

    def _spec_fill_advance(self, count: int, conds: int, next_addr: int,
                           terminal: bool) -> None:
        """Emulate fill-unit boundaries for build-mode fetched code."""
        self._spec_fill_len += count
        self._spec_fill_conds += conds
        if (
            self._spec_fill_len >= MAX_TRACE_LENGTH
            or self._spec_fill_conds >= MAX_TRACE_BRANCHES
            or terminal
        ):
            self.history.spec_push(self._spec_fill_start)
            self._spec_fill_reset(next_addr)

    # -- primary path: trace cache / descriptor-guided icache -----------------
    def _trace_fetch_stage(
        self, now: int, request: FetchRequest
    ) -> Optional[List[FetchFragment]]:
        if request is not self._cur_req:
            self._cur_req = request
            self._seg_idx = 0
            self._seg_off = 0
            self._prefix_left = 0
            descriptor: TraceDescriptor = request.descriptor
            hit = self.trace_cache.lookup(descriptor)
            if not hit and self.partial_matching:
                partial = self.trace_cache.partial_match(descriptor)
                if partial is not None and partial.interior_taken:
                    # Serve the stored prefix at trace cache speed; the
                    # remainder of the predicted trace comes from the
                    # instruction cache.
                    self._prefix_left = min(partial.length,
                                            descriptor.length)
                    self.stats.add("tc_partial_hits")
            if hit:
                self.stats.add("tc_hits")
            else:
                self.stats.add("tc_misses")
            self._tc_hit = hit

        descriptor = request.descriptor
        if self._tc_hit or self._prefix_left > 0:
            bundle, emitted = self._deliver_from_trace_cache(request, descriptor)
        else:
            delivered = self._deliver_from_icache(now, request, descriptor)
            if delivered is None:
                return None
            bundle, emitted = delivered
        if not bundle:
            return None
        self.fetch_cycles += 1
        self.fetched_instructions += emitted
        return bundle

    def _deliver_from_trace_cache(
        self, request: FetchRequest, descriptor: TraceDescriptor
    ) -> Tuple[List[FetchFragment], int]:
        """A trace cache (or partial-match prefix) hit: up to ``width``
        instructions, crossing taken branches freely, no instruction
        cache involvement.

        The accelerated kernel replays a full hit from the descriptor's
        :func:`fetch_plan` instead; this method (with :meth:`_emit_run`)
        is that plan's oracle, and still serves partial-match prefixes
        in both modes.
        """
        bundle: List[FetchFragment] = []
        emitted = 0
        budget = self.width
        if not self._tc_hit:
            budget = min(budget, self._prefix_left)
        while budget and self._seg_idx < len(descriptor.segments):
            seg_addr, seg_len = descriptor.segments[self._seg_idx]
            addr = seg_addr + self._seg_off * INSTRUCTION_BYTES
            take = min(budget, seg_len - self._seg_off)
            self._emit_run(bundle, request, descriptor, addr, take)
            emitted += take
            budget -= take
            if not self._tc_hit:
                self._prefix_left -= take
        self._finish_if_done(request, descriptor)
        return bundle, emitted

    def _deliver_from_icache(
        self, now: int, request: FetchRequest, descriptor: TraceDescriptor
    ) -> Optional[Tuple[List[FetchFragment], int]]:
        """Trace cache miss: rebuild the predicted trace from the
        instruction cache, one segment chunk per cycle."""
        seg_addr, seg_len = descriptor.segments[self._seg_idx]
        addr = seg_addr + self._seg_off * INSTRUCTION_BYTES
        if not self._on_image(addr):
            self._waiting_resolve = True
            return None
        if not self._fetch_line(now, addr):
            return None
        take = min(
            self.width,
            self._instrs_to_line_end(addr),
            seg_len - self._seg_off,
        )
        bundle: List[FetchFragment] = []
        self._emit_run(bundle, request, descriptor, addr, take)
        self._finish_if_done(request, descriptor)
        return bundle, take

    def _emit_run(
        self,
        bundle: List[FetchFragment],
        request: FetchRequest,
        descriptor: TraceDescriptor,
        addr: int,
        count: int,
    ) -> None:
        """Append ``count`` instructions from the current segment
        position (never crossing a segment boundary), split into
        fragments at interior conditional branches, with the final
        prediction taken from the trace.  The oracle of
        :func:`fetch_plan`'s split rules."""
        segments = descriptor.segments
        last_idx = len(segments) - 1
        seg_idx = self._seg_idx
        seg_off = self._seg_off
        ib = INSTRUCTION_BYTES
        end = addr + count * ib
        at_boundary = seg_off + count == segments[seg_idx][1]
        # The segment-boundary slot takes its prediction from the trace,
        # not from its (conditional) kind — skip it in the split loop.
        skip_addr = end - ib if at_boundary else -1
        ckpt_pre = request.ckpt_pre
        append = bundle.append
        frag_start = addr
        controls, _ = scan_run(self.program, addr, count)
        for baddr, lb in controls:
            if baddr != skip_addr and lb.kind is BranchKind.COND:
                # Interior conditional: implicitly not taken.
                run = (baddr - frag_start) // ib + 1
                append((frag_start, run, baddr + ib, ckpt_pre, None))
                frag_start = baddr + ib
        if at_boundary:
            run = (end - frag_start) // ib
            if seg_idx == last_idx:
                append((frag_start, run, request.pred_next, request.ckpt,
                        request.payload))
            else:
                append((frag_start, run, segments[seg_idx + 1][0],
                        ckpt_pre, None))
            self._seg_idx = seg_idx + 1
            self._seg_off = 0
        else:
            if frag_start < end:
                append((frag_start, (end - frag_start) // ib, end,
                        None, None))
            self._seg_off = seg_off + count

    def _finish_if_done(
        self, request: FetchRequest, descriptor: TraceDescriptor
    ) -> None:
        if self._seg_idx >= len(descriptor.segments):
            self.ftq.pop()
            self._cur_req = None
            self._tc_hit = None

    # -- secondary path: BTB-guided build fetch --------------------------------
    def _build_fetch_stage(self, now: int) -> Optional[List[FetchFragment]]:
        addr = self.predict_addr
        if not self._on_image(addr):
            self._waiting_resolve = True
            return None
        if not self._fetch_line(now, addr):
            return None
        window = min(self.width, self._instrs_to_line_end(addr))
        controls, avail = scan_run(self.program, addr, window)
        if avail == 0:
            self._waiting_resolve = True
            return None
        window = avail

        bundle: List[FetchFragment] = []
        append = bundle.append
        frag_start = addr
        ib = INSTRUCTION_BYTES
        next_fetch: Optional[int] = addr + window * ib
        stalled = False
        emitted = 0
        conds = 0
        terminal_taken = False
        for baddr, lb in controls:
            run = (baddr - frag_start) // ib + 1
            kind = lb.kind
            entry = self.btb.lookup(baddr)
            ckpt = (self.ras.checkpoint(), tuple(self.history.spec))
            if kind is BranchKind.COND:
                conds += 1
                taken = entry is not None and entry.predict_taken
                if taken:
                    append((frag_start, run, entry.target, ckpt, None))
                    emitted += run
                    next_fetch = entry.target
                    terminal_taken = True
                    frag_start = None
                    break
                append((frag_start, run, baddr + ib, ckpt, None))
                emitted += run
                frag_start = baddr + ib
                continue
            if kind in (BranchKind.JUMP, BranchKind.CALL):
                if entry is None:
                    self._stall(now, self.decode_bubble)
                    self.stats.add("decode_redirects")
                target = lb.target_addr
                if kind is BranchKind.CALL:
                    self.ras.push(baddr + INSTRUCTION_BYTES)
                append((frag_start, run, target,
                        (self.ras.checkpoint(), ckpt[1]), None))
                emitted += run
                next_fetch = target
                terminal_taken = True
                frag_start = None
                break
            if kind is BranchKind.RET:
                if entry is None:
                    self._stall(now, self.decode_bubble)
                    self.stats.add("decode_redirects")
                target = self.ras.pop()
                append((frag_start, run, target,
                        (self.ras.checkpoint(), ckpt[1]), None))
                emitted += run
                next_fetch = target
                terminal_taken = True
                frag_start = None
                break
            # Indirect.
            if entry is not None:
                append((frag_start, run, entry.target, ckpt, None))
                next_fetch = entry.target
                terminal_taken = True
            else:
                append((frag_start, run, None, ckpt, None))
                self.stats.add("indirect_stalls")
                self._waiting_resolve = True
                stalled = True
            emitted += run
            frag_start = None
            break

        if frag_start is not None:
            end = addr + window * ib
            if frag_start < end:
                run = (end - frag_start) // ib
                append((frag_start, run, end, None, None))
                emitted += run
        if not stalled:
            assert next_fetch is not None
            self.predict_addr = next_fetch
            self._spec_fill_advance(
                emitted, conds, next_fetch, terminal_taken
            )
        self.stats.add("build_cycles")
        self.fetch_cycles += 1
        self.fetched_instructions += emitted
        return bundle

    # ------------------------------------------------------------------
    def redirect(self, now, correct_addr, ckpt, resolved=None) -> None:
        self.ftq.flush()
        self._cur_req = None
        self._tc_hit = None
        self.predict_addr = correct_addr
        if isinstance(ckpt, tuple):
            ras_ckpt, hist_snap = ckpt
            self.ras.restore(ras_ckpt)
            self.history.spec = list(hist_snap)
        else:
            self.history.recover()
        # The fill unit restarts trace selection at the redirect point.
        self._spec_fill_reset(correct_addr)
        self._waiting_resolve = False
        self._busy_until = now + 1
        self.stats.add("redirects")

    # ------------------------------------------------------------------
    def note_commit(
        self, dyn: DynBlock, payload: object, mispredicted: bool
    ) -> None:
        kind = dyn.kind
        if kind is not BranchKind.NONE:
            target = dyn.next_addr if dyn.taken else 0
            self.btb.update(dyn.lb.branch_addr, target, kind, dyn.taken)

        fill = self._fill
        fill.mispredicted = fill.mispredicted or mispredicted
        size = dyn.size
        off = 0
        # Length-capped pieces: a block larger than the remaining trace
        # space splits the trace at the cap boundary.
        while off < size:
            space = MAX_TRACE_LENGTH - fill.length
            if space == 0:
                self._finalize_trace(BranchKind.NONE,
                                     dyn.addr + off * INSTRUCTION_BYTES)
                continue
            take = min(space, size - off)
            fill.pieces.append(dyn if take == size else (dyn, off, take))
            fill.length += take
            off += take
        if kind is BranchKind.NONE:
            return
        if kind is BranchKind.COND:
            fill.conds += 1

        ends_trace = (
            fill.length >= MAX_TRACE_LENGTH
            or fill.conds >= MAX_TRACE_BRANCHES
            or kind in (BranchKind.RET, BranchKind.IND)
            # Trace selection restarts at misprediction redirect points,
            # so future fetches at this address find a matching trace.
            or mispredicted
        )
        if ends_trace:
            self._finalize_trace(kind, dyn.next_addr)

    def _finalize_trace(self, terminal_kind: BranchKind, next_addr: int) -> None:
        fill = self._fill
        mispredicted = fill.mispredicted
        descriptor = fill.finalize(terminal_kind, next_addr)
        # The predictor only reads the history during the call (the
        # hasher tuples its own window), so the pre-push view is passed
        # directly instead of through a defensive copy.
        history_before = self.history.commit_view()
        self.predictor.update(history_before, descriptor, mispredicted)
        self.history.commit_push(descriptor.start)
        if descriptor.interior_taken or not self.selective_storage:
            self.trace_cache.insert(descriptor)
        else:
            self.trace_cache.selective_skips += 1
        self.stats.add("traces_committed")
