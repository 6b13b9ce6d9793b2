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

#: Issue-occupancy ring size (slots, power of two).  Cycle c lives at
#: slot ``c & _IU_MASK``; a cycle whose slot still holds another cycle's
#: stamp spills into a dict.  Spills are common, and the stamp they
#: collide with is dead: over a 32-cell Fig 8-shaped sweep (gzip and gcc,
#: both layouts, widths 2 and 8, 90k instructions), none of 91,571 spill
#: inserts found a stamp at or above ``ready_base - _IU_LAG``, so no later
#: probe or compaction recount reaches it.  Only compaction clears a dead
#: stamp; until then it holds its slot and counts toward ``_IU_LIMIT``.
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
        # Issue occupancy: cycle c lives at ring slot c & _IU_MASK when
        # the stamp matches; -1 stamps are free slots; aliasing cycles
        # live in the spill dict.  ``_iu_entries`` tracks the number of
        # distinct cycles exactly like ``len()`` of the dict it replaces,
        # so compaction triggers at identical moments.
        self._iu_vals = [0] * _IU_SIZE
        self._iu_stamps = [-1] * _IU_SIZE
        self._iu_spill: Dict[int, int] = {}
        self._iu_entries = 0
        #: Segments dispatched through :meth:`dispatch_segment`.
        self.seg_count = 0
        # Load-to-use latency added per D-side hit level (L1D, L2, memory).
        hit = mem._dl1_hit
        l2 = mem._l2_lat
        self._lvl_lat = (hit - 1, hit + l2 - 1, hit + l2 + mem._mem_lat - 1)

    # ------------------------------------------------------------------
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
        iu_vals = self._iu_vals
        iu_stamps = self._iu_stamps
        # Module-level constants as locals: read once or more per slot.
        iu_mask = _IU_MASK
        iu_limit = _IU_LIMIT
        # -- read the mutable scheduling state -------------------------
        iu_spill = self._iu_spill
        entries = self._iu_entries
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
                # The dict model checked its size after *every* insert,
                # so an over-full table keeps compacting (and advancing
                # the floor) until it shrinks.
                self._iu_entries = entries
                self._iu_compact(issue)
                entries = self._iu_entries
                iu_spill = self._iu_spill
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
        # (the issue floor and the spill dict only change inside
        # _iu_compact, which publishes them itself)
        self._iu_entries = entries
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
