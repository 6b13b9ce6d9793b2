"""The trace-driven processor: front-end + back-end co-simulation.

The processor owns the trace oracle (a :class:`TraceWalker`) and drives
one fetch engine cycle by cycle.  The modelling follows §4.1 of the
paper: a *static basic block dictionary* (the linked program image) lets
fetch continue down the predicted path after a misprediction, so wrong
speculative predictor-history updates and instruction cache pollution /
prefetching are simulated; recovery happens when the mispredicted branch
resolves in the back-end.

Per cycle:

1. Commit feedback — blocks whose commit time has arrived are replayed
   to the engine (predictor table updates happen in commit order).
2. Redirect — if the oldest unresolved misprediction resolves this
   cycle, the engine is redirected to the correct path and recovers its
   speculative state.
3. Fetch — unless the ROB is full, the engine fetches a bundle of
   straight-line *fragments* (see :mod:`repro.fetch.base`).
   Correct-path fragments are split at basic-block boundaries and each
   segment is dispatched into the dataflow back-end in one batched call
   (which fixes its completion/commit cycles immediately); every
   branch's predicted successor is verified against the trace, and the
   first divergence arms a resolution-time redirect.  Instructions
   fetched beyond the divergence are wrong-path: they cost fetch
   bandwidth and pollute caches, but never dispatch.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from typing import Deque, Optional, Tuple

from repro import obs
from repro.common.params import MachineParams
from repro.common.types import INSTRUCTION_BYTES, BranchKind
from repro.core.backend import DataflowBackend
from repro.core.results import SimulationResult
from repro.fetch.base import FetchEngine
from repro.isa.trace import DynBlock, TraceWalker
from repro.memory.hierarchy import MemoryHierarchy

#: Sentinel "no queued entry" cycle for the cached queue heads.
_NEVER = 1 << 62


class _TraceCursor:
    """Tracks the correct-path position at instruction granularity."""

    __slots__ = ("_walker", "dyn", "offset", "exhausted")

    def __init__(self, walker: TraceWalker) -> None:
        self._walker = walker
        self.dyn: Optional[DynBlock] = None
        self.offset = 0
        self.exhausted = False
        self._advance_block()

    def _advance_block(self) -> None:
        try:
            self.dyn = next(self._walker)
            self.offset = 0
        except StopIteration:  # pragma: no cover - walkers are infinite
            self.dyn = None
            self.exhausted = True

    @property
    def addr(self) -> int:
        assert self.dyn is not None
        return self.dyn.addr + self.offset * INSTRUCTION_BYTES

    @property
    def at_block_end(self) -> bool:
        assert self.dyn is not None
        return self.offset == self.dyn.size - 1

    @property
    def actual_next(self) -> int:
        """The true successor address of the current instruction."""
        assert self.dyn is not None
        if self.at_block_end:
            return self.dyn.next_addr
        return self.addr + INSTRUCTION_BYTES

    def advance(self) -> None:
        if self.at_block_end:
            self._advance_block()
        else:
            self.offset += 1


class Processor:
    """Wires a fetch engine, a back-end model and a trace together."""

    def __init__(
        self,
        engine: FetchEngine,
        walker: TraceWalker,
        machine: MachineParams,
        mem: MemoryHierarchy,
        benchmark: str = "?",
        optimized: bool = False,
        engine_mode: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.mem = mem
        # The backend reads the L1D outcome of each access off the
        # trace's data stream, which starts at the trace's first access
        # on a cold L1D: so must this processor.
        if walker._pos or mem.dl1.accesses:
            raise ValueError(
                "a processor starts at the head of its trace, on a cold L1D"
            )
        self.backend = DataflowBackend(
            machine, mem, walker.record.data_stream(mem.dl1.params)
        )
        self.cursor = _TraceCursor(walker)
        self.benchmark = benchmark
        self.optimized = optimized
        # ``engine_mode`` selects the execution strategy, never the
        # results: "accel" runs the exec-compiled specialized kernels of
        # :mod:`repro.accel` (bit-identical, falling back to the
        # interpreter with a single warning if codegen fails) and is
        # the default (None), "interp" forces the interpreted path.
        from repro import accel

        self.engine_mode = accel.resolve_engine_mode(engine_mode)
        self._accel_run = (
            accel.compiled_run(self) if self.engine_mode == "accel" else None
        )

    # ------------------------------------------------------------------
    def run(self, max_instructions: int, warmup: int = 0) -> SimulationResult:
        """Simulate until ``max_instructions`` have been scheduled.

        With ``warmup`` > 0, the first ``warmup`` instructions train the
        predictors and caches but are excluded from the reported cycle
        and event counts — the small-trace equivalent of the paper
        fast-forwarding to a representative segment before measuring.
        """
        # Observability happens only here, at the cell boundary — one
        # timestamp pair around the whole run, never inside the cycle
        # loop (the bench gate pins the hook's cost under 2%).
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if self._accel_run is not None:
            result = self._accel_run(max_instructions, warmup)
            obs.observe_cell("accel", result,
                             time.perf_counter() - wall0,
                             time.process_time() - cpu0)
            return result
        core = self.machine.core
        engine = self.engine
        cursor = self.cursor
        backend = self.backend

        result = SimulationResult(
            benchmark=self.benchmark,
            engine=engine.name,
            width=core.width,
            optimized=self.optimized,
            cycles=0,
            instructions=0,
        )

        now = 0
        scheduled = 0
        # Segment accounting baseline (the backend counter is
        # cumulative).
        seg_base = backend.seg_count
        warm_state: Optional[Tuple[int, int, SimulationResult, int, int]] = None
        diverged = False
        # (resolve_cycle, correct_addr, ckpt, counts_as_mispredict, dyn)
        pending: Optional[Tuple[int, int, object, bool, DynBlock]] = None
        # The retire queue, one entry per dispatched block: (commit_cycle,
        # instructions, dyn, payload, mispredicted).  Its instructions
        # occupy the ROB until the commit cycle; then the block's commit
        # is replayed to the engine.  A partial block at a bundle
        # boundary pushes dyn None: it holds the ROB only.
        retire: Deque[Tuple[int, int, Optional[DynBlock], object, bool]]
        retire = deque()
        inflight_count = 0
        retire_head = _NEVER
        dispatch_depth = core.dispatch_depth
        rob_size = core.rob_size
        ib = INSTRUCTION_BYTES

        # Hot-path locals: every name below is read once or more per
        # fragment, so the attribute walks are paid here instead of
        # inside the loop.
        engine_cycle = engine.cycle
        note_commit = engine.note_commit
        dispatch_seg = backend.dispatch_segment
        retire_pop = retire.popleft
        retire_push = retire.append
        walker_next = cursor._walker.__next__
        account_block = self._account_block
        account_mispredict = self._account_mispredict
        cur_dyn = cursor.dyn
        cur_off = cursor.offset

        # Hard safety net: a front-end deadlock (an engine stalling with
        # no pending redirect) must fail loudly, not spin forever.
        cycle_limit = 400 * max_instructions + 1_000_000

        while scheduled < max_instructions and cur_dyn is not None:
            now += 1
            if now > cycle_limit:
                raise RuntimeError(
                    f"simulation wedged: {scheduled} instructions in {now} "
                    f"cycles (engine={engine.name}, pending={pending}, "
                    f"diverged={diverged}, idle={result.idle_cycles})"
                )

            # The head cycle is cached as an int: commit slots are
            # allocated in order, so the queue is non-decreasing and the
            # head is always the minimum.
            while retire_head <= now:
                _, n, dyn, payload, misp = retire_pop()
                inflight_count -= n
                if dyn is not None:
                    note_commit(dyn, payload, misp)
                retire_head = retire[0][0] if retire else _NEVER

            if pending is not None and now >= pending[0]:
                _, correct_addr, ckpt, _, resolved = pending
                engine.redirect(now, correct_addr, ckpt, resolved)
                pending = None
                diverged = False
                continue

            if not diverged and inflight_count >= rob_size:
                # Nothing can change while the window stays full: the
                # next state change is the retire queue's head (a commit
                # replay, a ROB release or both) or the pending redirect.
                # Account the stalled cycles in bulk and jump there
                # (bit-exact: the per-cycle loop would classify every
                # skipped cycle as a ROB stall and touch nothing else).
                nxt = retire_head
                if pending is not None and pending[0] < nxt:
                    nxt = pending[0]
                result.rob_stall_cycles += nxt - now
                now = nxt - 1
                continue

            bundle = engine_cycle(now)
            if not bundle:
                # While the engine waits on the pending resolution it is
                # contractually a no-op (every engine returns None ahead
                # of its prediction stage when ``_waiting_resolve`` is
                # set), so those cycles jump in bulk too.  Other empty
                # cycles — an instruction-cache busy window, a queue
                # hiccup — advance one cycle exactly as before: the
                # decoupled engines keep predicting into the FTQ during
                # an I-cache stall, so skipping would lose that work.
                if engine._waiting_resolve and pending is not None:
                    nxt = retire_head
                    if pending[0] < nxt:
                        nxt = pending[0]
                    if nxt > now + 1:
                        result.idle_cycles += nxt - now
                        now = nxt - 1
                    else:
                        result.idle_cycles += 1
                else:
                    result.idle_cycles += 1
                continue

            if diverged:
                # The whole bundle is wrong-path speculative fetch: it
                # cost bandwidth and polluted caches inside the engine,
                # but nothing dispatches.
                for frag in bundle:
                    result.wrong_path_instructions += frag[1]
                continue

            dispatch_cycle = now + dispatch_depth
            block_instrs = 0
            block_commit = 0
            correct_in_bundle = 0
            n_frags = len(bundle)
            for fi in range(n_frags):
                start, count, pred_next, ckpt, payload = bundle[fi]
                dyn = cur_dyn
                assert start == dyn.addr + cur_off * ib, (
                    f"engine fetched {start:#x}, trace expects "
                    f"{dyn.addr + cur_off * ib:#x} at cycle {now}"
                )
                remaining = count
                while remaining:
                    dyn = cur_dyn
                    size = dyn.size
                    take = size - cur_off
                    if take > remaining:
                        take = remaining
                    complete, commit = dispatch_seg(
                        dyn.sched, cur_off, take, dispatch_cycle
                    )
                    scheduled += take
                    correct_in_bundle += take
                    remaining -= take

                    if cur_off + take == size:
                        # Block boundary: verify the prediction for the
                        # terminal instruction.  Fragment interiors are
                        # implicitly sequential, so interior block ends
                        # predict the fall-through with no checkpoint.
                        if remaining:
                            pred = dyn.addr + size * ib
                            ck = None
                            pl = None
                        else:
                            pred = pred_next
                            ck = ckpt
                            pl = payload
                        actual_next = dyn.next_addr
                        account_block(result, dyn)
                        mispredicted = False
                        if pred is None:
                            # The engine has no target (indirect without
                            # a BTB entry): it stalls until resolution.
                            result.indirect_resolutions += 1
                            pending = (complete + 1, actual_next, ck,
                                       False, dyn)
                            diverged = True
                        elif pred != actual_next:
                            mispredicted = True
                            account_mispredict(result, dyn)
                            pending = (complete + 1, actual_next, ck,
                                       True, dyn)
                            diverged = True
                        block_instrs += take
                        retire_push((commit, block_instrs, dyn, pl,
                                     mispredicted))
                        if commit < retire_head:
                            retire_head = commit
                        inflight_count += block_instrs
                        block_instrs = 0
                        try:
                            cur_dyn = walker_next()
                            cur_off = 0
                        except StopIteration:  # pragma: no cover - infinite
                            cur_dyn = None
                            cur_off = 0
                            break
                        if diverged:
                            break
                    else:
                        # Fragment ends mid-block (bundle boundary).
                        cur_off += take
                        block_instrs += take
                        block_commit = commit
                        if pred_next is not None:
                            last_next = start + count * ib
                            if pred_next != last_next:
                                # Defensive: a mid-block divergence means
                                # the engine predicted a jump out of a
                                # straight-line run.
                                pending = (complete + 1, last_next, ckpt,
                                           True, dyn)
                                result.mispredictions += 1
                                diverged = True
                        break  # remaining is 0 here by construction

                if cur_dyn is None:  # pragma: no cover - walkers are infinite
                    break
                if diverged:
                    # Everything past the divergence is wrong-path.
                    wrong = remaining
                    for fj in range(fi + 1, n_frags):
                        wrong += bundle[fj][1]
                    result.wrong_path_instructions += wrong
                    break

            if block_instrs:
                # Partial block at the bundle boundary still occupies
                # the window until its (future) block commit completes.
                retire_push((block_commit, block_instrs, None, None, False))
                if block_commit < retire_head:
                    retire_head = block_commit
                inflight_count += block_instrs

            if correct_in_bundle:
                result.fetch_cycles += 1
                result.fetched_instructions += correct_in_bundle

            if warmup and warm_state is None and scheduled >= warmup:
                warm_state = (
                    now,
                    scheduled,
                    copy.copy(result),
                    result.fetch_cycles,
                    result.fetched_instructions,
                )

            if scheduled >= max_instructions:
                break

        # Publish the loop-local cursor state back to the cursor object
        # so the processor can be inspected (or resumed) after the run.
        cursor.dyn = cur_dyn
        cursor.offset = cur_off
        cursor.exhausted = cur_dyn is None

        result.instructions = scheduled
        result.cycles = max(now, backend.last_commit_cycle)
        if warm_state is not None:
            warm_now, warm_sched, warm_result, warm_fc, warm_fi = warm_state
            result.instructions = scheduled - warm_sched
            result.cycles = max(now, backend.last_commit_cycle) - warm_now
            result.fetch_cycles -= warm_fc
            result.fetched_instructions -= warm_fi
            for name in (
                "branches", "cond_branches", "taken_branches",
                "mispredictions", "cond_mispredictions",
                "return_mispredictions", "indirect_resolutions",
                "wrong_path_instructions", "rob_stall_cycles", "idle_cycles",
            ):
                setattr(result, name,
                        getattr(result, name) - getattr(warm_result, name))
        result.engine_stats = engine.stats_dict()
        result.memory_stats = self.mem.stats_summary()
        # Run diagnostics.  These describe *how* the run executed — they
        # ride in ``extras`` so they never perturb result equality or
        # stored artifacts.
        result.extras = {"segments": backend.seg_count - seg_base}
        obs.observe_cell("interp", result,
                         time.perf_counter() - wall0,
                         time.process_time() - cpu0)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _account_block(result: SimulationResult, dyn: DynBlock) -> None:
        kind = dyn.kind
        if kind is BranchKind.NONE:
            return
        result.branches += 1
        if kind is BranchKind.COND:
            result.cond_branches += 1
        if dyn.taken:
            result.taken_branches += 1

    @staticmethod
    def _account_mispredict(result: SimulationResult, dyn: DynBlock) -> None:
        result.mispredictions += 1
        kind = dyn.kind
        if kind is BranchKind.COND:
            result.cond_mispredictions += 1
        elif kind is BranchKind.RET:
            result.return_mispredictions += 1
