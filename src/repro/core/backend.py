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
inside one linear block, all sharing a dispatch cycle) through
:meth:`DataflowBackend.dispatch_segment`.  One call per segment reads the
scheduling state into locals, runs one per-slot loop over the segment's
slots (dependence readiness, issue-slot search and booking, D-cache
probe, in-order commit) with the block's metadata and slot keys, and
writes the state back.  A one-slot segment is the per-instruction model.
This method is the interpreted oracle; the accel run kernel
(:mod:`repro.accel.core_gen`) inlines the same loop, and
``tests/accel/test_parity.py`` pins the two together.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.common.params import MachineParams
from repro.common.types import InstrClass
from repro.isa.program import InstrMeta
from repro.memory.hierarchy import MemoryHierarchy

#: Ring size for completion-time lookback; must exceed the largest
#: dependence distance the metadata generator emits (64).
_RING = 128

# Plain-int class codes: metadata carries ints, and IntEnum equality is
# several times slower than int equality on the per-instruction path.
_LOAD = int(InstrClass.LOAD)
_STORE = int(InstrClass.STORE)

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
        "load_accesses", "store_accesses", "_iu",
        "_lvl_lat", "seg_count",
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
        # Issue occupancy: cycle -> instructions issued in that cycle.
        self._iu: Dict[int, int] = {}
        #: Segments dispatched through :meth:`dispatch_segment`.
        self.seg_count = 0
        # Load-to-use latency added per D-side hit level (L1D, L2, memory).
        hit = mem._dl1_hit
        l2 = mem._l2_lat
        self._lvl_lat = (hit - 1, hit + l2 - 1, hit + l2 + mem._mem_lat - 1)

    # ------------------------------------------------------------------
    def _iu_compact(self, issue: int) -> None:
        """Drop occupancy entries older than ``issue - _IU_LAG``; the
        issue floor only ever advances."""
        floor = issue - _IU_LAG
        self._iu = {c: n for c, n in self._iu.items() if c >= floor}
        if floor > self._issue_floor:
            self._issue_floor = floor

    # ------------------------------------------------------------------
    def dispatch_segment(
        self,
        meta: Sequence[InstrMeta],
        keys: Sequence[Tuple[int, int]],
        start: int,
        count: int,
        dispatch_cycle: int,
    ) -> Tuple[int, int]:
        """Schedule slots ``start`` .. ``start + count - 1`` of one block.

        ``meta`` and ``keys`` are the block's per-slot metadata and slot
        keys.  All slots share ``dispatch_cycle`` (they were fetched in
        one bundle).  Returns the (complete, commit) cycles of the
        *last* slot — the only per-slot timings the processor consumes
        (branch resolution and block commit are terminal-slot
        properties).
        """
        width = self.width
        lvl0, lvl1, lvl2 = self._lvl_lat
        # The caches and the counter dict, not bound methods: binding
        # allocates on every call, and most segments probe once or less.
        mem = self.mem
        dl1 = mem.dl1
        l2 = mem.l2
        counters = self._load_counters
        completions = self._completions
        # A module-level constant as a local: read once per slot.
        iu_limit = _IU_LIMIT
        # -- read the mutable scheduling state -------------------------
        iu = self._iu
        floor = self._issue_floor
        cnt = self._count
        last = self._last_commit
        cic = self._commits_in_cycle
        loads = self.load_accesses
        stores = self.store_accesses

        ready_base = dispatch_cycle + 1
        complete = commit = 0
        for i in range(start, start + count):
            cls, latency, d1, d2, mem_base, mem_stride, mem_span = meta[i]
            ready = ready_base
            if d1:
                dep = completions[(cnt - d1) & 127]
                if dep > ready:
                    ready = dep
            if d2:
                dep = completions[(cnt - d2) & 127]
                if dep > ready:
                    ready = dep
            # Issue-slot allocation: earliest cycle >= ready with spare
            # issue bandwidth.
            issue = ready if ready > floor else floor
            used = iu.get(issue, 0)
            while used >= width:
                issue += 1
                used = iu.get(issue, 0)
            iu[issue] = used + 1
            if len(iu) > iu_limit:
                # The size is checked after *every* insert, so an
                # over-full table keeps compacting (and advancing the
                # floor) until it shrinks.
                self._iu_compact(issue)
                iu = self._iu
                floor = self._issue_floor

            if cls == _LOAD or cls == _STORE:
                # Synthesize this access's address and probe the
                # D-cache.  Stores retire through the store buffer: the
                # access happens for its side effects but does not
                # extend latency.
                slot_key = keys[i]
                k = counters.get(slot_key, 0)
                counters[slot_key] = k + 1
                a = mem_base + (k * mem_stride) % (
                    mem_span if mem_span > 0 else 1
                )
                if dl1.access(a):
                    dlat = lvl0
                elif l2.access(a):
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

            # Commit-slot allocation: in-order, at most ``width`` per
            # cycle.
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

        # -- write the state back --------------------------------------
        # (slots are booked in the table in place; _iu_compact publishes
        # the table it rebuilds and the issue floor itself)
        self._count = cnt
        self._last_commit = last
        self._commits_in_cycle = cic
        self.load_accesses = loads
        self.store_accesses = stores
        self.seg_count += 1
        return complete, commit

    # ------------------------------------------------------------------
    @property
    def instructions(self) -> int:
        return self._count

    @property
    def last_commit_cycle(self) -> int:
        return self._last_commit
