"""A limited-window dataflow back-end model.

The paper's evaluation needs a back-end that (a) consumes at most
``width`` instructions per cycle, (b) exposes real dependence-limited
ILP so the 2-wide machine is back-end-bound while the 8-wide machine is
fetch-bound, and (c) resolves branches at a realistic depth so
misprediction penalties scale with pipeline length.  This model provides
exactly that:

* every instruction carries synthetic (class, latency, dependence
  distance) metadata generated deterministically per static slot;
* an instruction issues at the earliest cycle >= max(dispatch, source
  readiness) with a free issue slot (``width`` slots per cycle);
* loads probe the simulated L1D/L2 and extend their latency on misses;
* commit is in-order, ``width`` per cycle — the commit time feeds the
  ROB-occupancy gate that stalls fetch when the window fills.

The model is evaluated incrementally at dispatch time: because issue and
commit times depend only on *older* instructions, each instruction's
timing is final the moment it enters — which is what lets the processor
know a branch's resolution cycle as soon as it is fetched.

Block-batched scheduling
------------------------

The processor dispatches whole straight-line *segments* (a run of slots
inside one linear block, all sharing a dispatch cycle) through the
backend's **segment scheduler**.  One ``send`` per segment runs one
per-slot loop over the segment's slots, applying exactly the rules of
:meth:`DataflowBackend.dispatch` (dependence readiness, issue-slot
search and booking, D-cache probe, in-order commit) with the block's
metadata and slot keys read straight from the :class:`LinearBlock`.

The scheduler is implemented as a *persistent generator* so all of its
mutable state lives in one frame's locals for the lifetime of a run —
the Python-level equivalent of keeping the machine state in registers —
instead of being re-read from the object per call.  The attribute view
(``_count``, ``_last_commit``, ...) is refreshed by :meth:`_sync`,
which the canonical :meth:`dispatch` entry point and the public
inspection properties call automatically.  The scheduler produces
bit-identical timings to calling :meth:`dispatch` once per instruction
— ``tests/core/test_backend.py`` pins that parity.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.params import MachineParams
from repro.common.types import InstrClass
from repro.isa.program import InstrMeta, LinearBlock
from repro.memory.hierarchy import MemoryHierarchy

#: Ring size for completion-time lookback; must exceed the largest
#: dependence distance the metadata generator emits (64).
_RING = 128

# Plain-int class codes: metadata carries ints, and IntEnum equality is
# several times slower than int equality on the per-instruction path.
_LOAD = int(InstrClass.LOAD)
_STORE = int(InstrClass.STORE)

#: Issue-occupancy ring size (slots, power of two).  The ring covers the
#: window of cycles a dispatch can still probe; cycles that would alias a
#: still-live entry spill into a dict (rare — it takes a dependence chain
#: booking issue slots ``_IU_SIZE`` cycles ahead).
_IU_SIZE = 8192
_IU_MASK = _IU_SIZE - 1

#: Occupancy-table compaction: when more than ``_IU_LIMIT`` distinct
#: issue cycles are tracked, entries older than ``issue - _IU_LAG`` are
#: dropped and the issue floor advances.  These values are semantics
#: (the floor clamps future issue searches), not just tuning: they must
#: match the seed model exactly.
_IU_LIMIT = 4096
_IU_LAG = 256


class DataflowBackend:
    """Incremental timing model for the out-of-order core."""

    __slots__ = (
        "machine", "mem", "width", "_completions", "_count",
        "_issue_floor", "_last_commit",
        "_commits_in_cycle", "_load_counters",
        "load_accesses", "store_accesses",
        # Issue-occupancy table: stamped modulo ring + overflow dict.
        "_iu_vals", "_iu_stamps", "_iu_spill", "_iu_entries",
        # Block-batched scheduling state.
        "_lvl_lat", "_dl1_access", "_l2_access", "_sched", "_sched_send",
        "seg_count",
    )

    def __init__(self, machine: MachineParams, mem: MemoryHierarchy) -> None:
        self.machine = machine
        self.mem = mem
        self.width = machine.core.width
        self._completions = [0] * _RING
        self._count = 0
        self._issue_floor = 0
        self._last_commit = 0
        self._commits_in_cycle = 0
        self._load_counters: Dict[Tuple[int, int], int] = {}
        self.load_accesses = 0
        self.store_accesses = 0
        # Issue occupancy: cycle c lives at ring slot c & _IU_MASK when
        # the stamp matches; -1 stamps are free slots; aliasing cycles
        # live in the spill dict.  ``_iu_entries`` tracks the number of
        # distinct cycles exactly like ``len()`` of the dict it replaces,
        # so compaction triggers at identical moments.
        self._iu_vals = [0] * _IU_SIZE
        self._iu_stamps = [-1] * _IU_SIZE
        self._iu_spill: Dict[int, int] = {}
        self._iu_entries = 0
        #: Segments dispatched through the segment scheduler.
        self.seg_count = 0
        hit = mem._dl1_hit
        l2 = mem._l2_lat
        self._lvl_lat = (hit - 1, hit + l2 - 1, hit + l2 + mem._mem_lat - 1)
        self._dl1_access = mem.dl1.access
        self._l2_access = mem.l2.access
        self._sched = None
        self._sched_send = None

    # ------------------------------------------------------------------
    # scheduler lifecycle
    # ------------------------------------------------------------------
    def scheduler_send(self):
        """The bound ``send`` of the persistent segment scheduler.

        The processor calls this once per run and then sends one
        ``(lb, start, count, dispatch_cycle)`` tuple per dispatched
        segment, receiving the terminal slot's ``(complete, commit)``.
        Sending ``None`` parks the scheduler: its frame-local state is
        published back to the backend's attributes (see :meth:`_sync`).
        """
        send = self._sched_send
        if send is None:
            self._sched = self._scheduler()
            next(self._sched)
            send = self._sched_send = self._sched.send
        return send

    def _sync(self) -> None:
        """Publish scheduler-local state back to the attribute view.

        Idempotent and cheap when the scheduler is already parked (or
        was never started); required before reading or mutating the
        scheduling state through the object (canonical :meth:`dispatch`,
        the inspection properties, tests poking at internals).
        """
        send = self._sched_send
        if send is not None:
            send(None)

    def dispatch_segment(
        self, lb: LinearBlock, start: int, count: int, dispatch_cycle: int
    ) -> Tuple[int, int]:
        """Schedule ``count`` slots of ``lb`` beginning at ``start``.

        All slots share ``dispatch_cycle`` (they were fetched in one
        bundle).  Returns the (complete, commit) cycles of the *last*
        slot — the only per-slot timings the processor consumes (branch
        resolution and block commit are terminal-slot properties).
        Equivalent to ``count`` calls of :meth:`dispatch`.
        """
        send = self._sched_send
        if send is None:
            send = self.scheduler_send()
        return send((lb, start, count, dispatch_cycle))

    # ------------------------------------------------------------------
    # issue-occupancy table helpers (the scheduler inlines these)
    # ------------------------------------------------------------------
    def _iu_get(self, cycle: int) -> int:
        if self._iu_stamps[cycle & _IU_MASK] == cycle:
            return self._iu_vals[cycle & _IU_MASK]
        if self._iu_spill:
            return self._iu_spill.get(cycle, 0)
        return 0

    def _iu_add(self, cycle: int, n: int) -> None:
        """Add ``n`` uses at ``cycle``; maintains the distinct-cycle count."""
        slot = cycle & _IU_MASK
        stamps = self._iu_stamps
        if stamps[slot] == cycle:
            self._iu_vals[slot] += n
            return
        spill = self._iu_spill
        if spill and cycle in spill:
            spill[cycle] += n
            return
        if stamps[slot] == -1:
            stamps[slot] = cycle
            self._iu_vals[slot] = n
        else:
            spill[cycle] = n
        self._iu_entries += 1

    def _iu_compact(self, issue: int) -> None:
        """Drop occupancy entries older than ``issue - _IU_LAG``.

        Mirrors the dict model exactly: entries below the raw floor are
        forgotten, the distinct-cycle count is recounted over the
        survivors, and the issue floor only ever advances.
        """
        floor = issue - _IU_LAG
        stamps = self._iu_stamps
        live = 0
        for slot in range(_IU_SIZE):
            stamp = stamps[slot]
            if stamp >= floor:
                live += 1
            elif stamp != -1:
                stamps[slot] = -1
        spill = self._iu_spill
        if spill:
            spill = {c: n for c, n in spill.items() if c >= floor}
            self._iu_spill = spill
        self._iu_entries = live + len(spill)
        if floor > self._issue_floor:
            self._issue_floor = floor

    # ------------------------------------------------------------------
    def dispatch(
        self, meta: InstrMeta, slot_key: Tuple[int, int], dispatch_cycle: int
    ) -> Tuple[int, int]:
        """Schedule one instruction; returns (complete, commit) cycles.

        This is the canonical dispatch model; the segment scheduler is
        the batched equivalent the processor uses, and
        ``tests/core/test_backend.py::TestDispatchProcessorParity``
        cross-checks the two over full simulations.
        """
        self._sync()
        cls, latency, d1, d2, mem_base, mem_stride, mem_span = meta
        completions = self._completions
        index = self._count
        ready = dispatch_cycle + 1
        if d1:
            dep = completions[(index - d1) % _RING]
            if dep > ready:
                ready = dep
        if d2:
            dep = completions[(index - d2) % _RING]
            if dep > ready:
                ready = dep

        # Issue-slot allocation: earliest cycle >= ready with spare
        # issue bandwidth.
        width = self.width
        floor = self._issue_floor
        issue = ready if ready > floor else floor
        while self._iu_get(issue) >= width:
            issue += 1
        self._iu_add(issue, 1)
        if self._iu_entries > _IU_LIMIT:
            self._iu_compact(issue)

        if cls == _LOAD:
            latency += self._memory_latency(slot_key, mem_base, mem_stride,
                                            mem_span, is_store=False)
            self.load_accesses += 1
        elif cls == _STORE:
            # Stores retire through the store buffer; the D-cache access
            # happens for its side effects but does not extend latency.
            self._memory_latency(slot_key, mem_base, mem_stride, mem_span,
                                 is_store=True)
            self.store_accesses += 1

        complete = issue + latency
        completions[index % _RING] = complete
        self._count = index + 1

        # Commit-slot allocation: in-order, at most ``width`` per cycle.
        earliest = complete + 1
        last = self._last_commit
        commit = earliest if earliest > last else last
        if commit == last:
            if self._commits_in_cycle >= width:
                commit += 1
                self._commits_in_cycle = 1
            else:
                self._commits_in_cycle += 1
        else:
            self._commits_in_cycle = 1
        self._last_commit = commit
        return complete, commit

    # ------------------------------------------------------------------
    def _scheduler(self):
        """Persistent batched segment scheduler (see module docstring).

        Protocol: ``send((lb, start, count, D))`` schedules one segment
        and yields its terminal ``(complete, commit)``; ``send(None)``
        parks the scheduler, publishing all frame-local state back to
        the backend attributes, and yields an acknowledgement.  On the
        next real send the state is re-hoisted from the attributes, so
        interleaving with the canonical per-instruction path stays
        coherent.

        Each segment runs one per-slot loop that applies exactly the
        scheduling rules of :meth:`dispatch`, issue-table compaction
        included; the parity tests drive full simulations through both.
        """
        width = self.width
        lvl0, lvl1, lvl2 = self._lvl_lat
        dl1 = self._dl1_access
        l2 = self._l2_access
        counters = self._load_counters
        completions = self._completions
        iu_vals = self._iu_vals
        iu_stamps = self._iu_stamps
        counters_get = counters.get
        # Module-level constants as frame locals: these are read once or
        # more per slot.
        iu_mask = _IU_MASK
        iu_limit = _IU_LIMIT

        result = None
        while True:
            args = yield result
            if args is None:
                result = None  # parked with nothing hoisted: plain ack
                continue
            # -- hoist the mutable scheduling state --------------------
            iu_spill = self._iu_spill
            entries = self._iu_entries
            floor = self._issue_floor
            cnt = self._count
            last = self._last_commit
            cic = self._commits_in_cycle
            loads = self.load_accesses
            stores = self.store_accesses
            segs = self.seg_count

            while args is not None:
                lb, start, count, D = args
                segs += 1
                meta = lb._meta
                keys = lb._slot_keys
                ready_base = D + 1
                complete = commit = 0
                for i in range(start, start + count):
                    (cls, latency, d1, d2, mem_base, mem_stride,
                     mem_span) = meta[i]
                    ready = ready_base
                    if d1:
                        dep = completions[(cnt - d1) & 127]
                        if dep > ready:
                            ready = dep
                    if d2:
                        dep = completions[(cnt - d2) & 127]
                        if dep > ready:
                            ready = dep
                    issue = ready if ready > floor else floor
                    while True:
                        s = issue & iu_mask
                        if iu_stamps[s] == issue:
                            used = iu_vals[s]
                        elif iu_spill:
                            used = iu_spill.get(issue, 0)
                        else:
                            used = 0
                        if used < width:
                            break
                        issue += 1
                    s = issue & iu_mask
                    if iu_stamps[s] == issue:
                        iu_vals[s] += 1
                    elif iu_spill and issue in iu_spill:
                        iu_spill[issue] += 1
                    else:
                        if iu_stamps[s] == -1:
                            iu_stamps[s] = issue
                            iu_vals[s] = 1
                        else:
                            iu_spill[issue] = 1
                        entries += 1
                    if entries > iu_limit:
                        # The dict model checked its size after *every*
                        # insert, so an over-full table keeps compacting
                        # (and advancing the floor) until it shrinks.
                        self._iu_entries = entries
                        self._iu_compact(issue)
                        entries = self._iu_entries
                        iu_spill = self._iu_spill
                        floor = self._issue_floor

                    if cls == _LOAD or cls == _STORE:
                        slot_key = keys[i]
                        k = counters_get(slot_key, 0)
                        counters[slot_key] = k + 1
                        a = mem_base + (k * mem_stride) % (
                            mem_span if mem_span > 0 else 1
                        )
                        if dl1(a):
                            dlat = lvl0
                        elif l2(a):
                            dlat = lvl1
                        else:
                            dlat = lvl2
                        if cls == _LOAD:
                            latency += dlat
                            loads += 1
                        else:
                            stores += 1

                    complete = issue + latency
                    completions[cnt & 127] = complete
                    cnt += 1

                    earliest = complete + 1
                    commit = earliest if earliest > last else last
                    if commit == last:
                        if cic >= width:
                            commit += 1
                            cic = 1
                        else:
                            cic += 1
                    else:
                        cic = 1
                    last = commit
                args = yield (complete, commit)

            # -- park: publish the frame-local state -------------------
            self._iu_entries = entries
            self._issue_floor = floor
            self._count = cnt
            self._last_commit = last
            self._commits_in_cycle = cic
            self.load_accesses = loads
            self.store_accesses = stores
            self.seg_count = segs
            result = None

    # ------------------------------------------------------------------
    def _memory_latency(
        self,
        slot_key: Tuple[int, int],
        base: int,
        stride: int,
        span: int,
        is_store: bool,
    ) -> int:
        """Synthesize this access's address and probe the D-cache."""
        counters = self._load_counters
        k = counters.get(slot_key, 0)
        counters[slot_key] = k + 1
        addr = base + (k * stride) % (span if span > 0 else 1)
        # Inlined L1D-hit fast path of MemoryHierarchy.data_access.
        mem = self.mem
        if mem.dl1.access(addr):
            return mem._dl1_hit - 1
        if mem.l2.access(addr):
            return mem._dl1_hit + mem._l2_lat - 1
        return mem._dl1_hit + mem._l2_lat + mem._mem_lat - 1

    # ------------------------------------------------------------------
    @property
    def instructions(self) -> int:
        self._sync()
        return self._count

    @property
    def last_commit_cycle(self) -> int:
        self._sync()
        return self._last_commit
