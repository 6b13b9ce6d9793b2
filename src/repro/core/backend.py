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
* loads and stores access the simulated L1D; a miss goes on to the L2,
  and a load's latency grows with the level that held the line;
* commit is in-order, ``width`` per cycle — the commit time feeds the
  ROB-occupancy gate that stalls fetch when the window fills.

The model is evaluated incrementally at dispatch time: because issue and
commit times depend only on *older* instructions, each instruction's
timing is final the moment it enters — which is what lets the processor
know a branch's resolution cycle as soon as it is fetched.

The data side
-------------

Only correct-path loads and stores reach the L1D, in trace order, and
nothing else does, so the L1D outcome of every access is a property of
the trace, not of the cell that simulates it.  A :class:`DataStream`
computes it once per trace and L1D configuration (it is cached on the
:class:`~repro.isa.trace.TraceRecord`), and every processor on that
trace reads it: the n-th memory access of a run takes the n-th code.
The L2 is shared with the instruction side, whose accesses depend on
the fetch engine, so an L1D miss still probes the cell's own L2, at the
same point in the cycle.  ``mem.dl1`` keeps the published counters
only; its sets stay empty.

Block-batched scheduling
------------------------

The processor dispatches whole straight-line *segments* (a run of slots
inside one linear block, all sharing a dispatch cycle) through
:meth:`DataflowBackend.dispatch_segment`.  One call per segment reads the
scheduling state into locals, runs one per-slot loop over the segment's
slots (dependence readiness, issue-slot search and booking, D-side
latency, in-order commit) with the block's schedule tuples, and writes
the state back.  A one-slot segment is the per-instruction model.
This method is the interpreted oracle; the accel run kernel
(:mod:`repro.accel.core_gen`) inlines the same loop, and
``tests/accel/test_parity.py`` pins the two together.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.params import CacheParams, MachineParams
from repro.common.types import INSTRUCTION_BYTES, InstrClass
from repro.isa.program import MEM_LOAD, SchedSlot
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy

#: Ring size for completion-time lookback; must exceed the largest
#: dependence distance the metadata generator emits (64).
_RING = 128

# Plain-int class codes: metadata carries ints, and IntEnum equality is
# several times slower than int equality.
_LOAD = int(InstrClass.LOAD)
_STORE = int(InstrClass.STORE)

#: Occupancy-table compaction: when more than ``_IU_LIMIT`` distinct
#: issue cycles are tracked, entries older than ``issue - _IU_LAG`` are
#: dropped and the issue floor advances.  These values are semantics
#: (the floor clamps future issue searches), not just tuning: they must
#: match the seed model exactly.
_IU_LIMIT = 4096
_IU_LAG = 256


class DataStream:
    """The L1D outcome of every load and store of one trace, in order.

    ``codes`` holds one int per dynamic load or store: ``-1`` for an L1D
    hit, else ``(addr << 1) | evicted`` for a miss at ``addr`` that did
    (1) or did not (0) evict a line.  The list is append-only:
    :meth:`extend` appends the accesses of the blocks the trace record
    has produced since the last call.

    Addresses are synthesized per static instruction: the k-th execution
    of a memory instruction touches ``base + (k * stride) % span``.  They
    go through this stream's own :class:`~repro.memory.cache.Cache`, so
    the L1D's LRU rules have one implementation.
    """

    __slots__ = ("codes", "_record", "_pos", "_counters", "_cache")

    def __init__(self, record, dl1: CacheParams) -> None:
        self.codes: List[int] = []
        self._record = record
        #: Record blocks covered so far.
        self._pos = 0
        #: Instruction address -> executions so far.
        self._counters: Dict[int, int] = {}
        self._cache = Cache(dl1, "L1D")

    def extend(self) -> None:
        """Append the codes of every block the record has produced
        since the last call."""
        blocks = self._record.blocks
        append = self.codes.append
        counters = self._counters
        cache = self._cache
        access = cache.access
        evictions = cache.evictions
        for dyn in blocks[self._pos:]:
            addr = dyn.addr
            for cls, _lat, _d1, _d2, base, stride, span in dyn.meta:
                if cls == _LOAD or cls == _STORE:
                    k = counters.get(addr, 0)
                    counters[addr] = k + 1
                    a = base + (k * stride) % (span if span > 0 else 1)
                    if access(a):
                        append(-1)
                    else:
                        append((a << 1) | (cache.evictions - evictions))
                        evictions = cache.evictions
                addr += INSTRUCTION_BYTES
        self._pos = len(blocks)


class DataflowBackend:
    """Incremental timing model for the out-of-order core.

    ``data`` is the :class:`DataStream` of the trace the processor
    dispatches, from its start: anything with an append-only ``codes``
    list and an ``extend()`` that covers the accesses dispatched next.
    """

    __slots__ = (
        "machine", "mem", "width", "_data", "_completions", "_count",
        "_issue_floor", "_last_commit", "_commits_in_cycle",
        "load_accesses", "store_accesses", "_iu",
        "_lvl_lat", "seg_count",
    )

    def __init__(self, machine: MachineParams, mem: MemoryHierarchy,
                 data: DataStream) -> None:
        self.machine = machine
        self.mem = mem
        self.width = machine.core.width
        self._data = data
        self._completions = [0] * _RING
        self._count = 0
        self._issue_floor = 0
        self._last_commit = 0
        self._commits_in_cycle = 0
        # Memory accesses dispatched so far; their sum indexes the data
        # stream.
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
        sched: Sequence[SchedSlot],
        start: int,
        count: int,
        dispatch_cycle: int,
    ) -> Tuple[int, int]:
        """Schedule slots ``start`` .. ``start + count - 1`` of one block.

        ``sched`` is the block's per-slot schedule tuples.  All slots
        share ``dispatch_cycle`` (they were fetched in one bundle).
        Returns the (complete, commit) cycles of the *last* slot — the
        only per-slot timings the processor consumes (branch resolution
        and block commit are terminal-slot properties).
        """
        width = self.width
        lvl0, lvl1, lvl2 = self._lvl_lat
        # The caches and the stream, not bound methods: binding
        # allocates on every call, and most segments probe once or less.
        dl1 = self.mem.dl1
        l2 = self.mem.l2
        data = self._data
        codes = data.codes
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
            mem, latency, d1, d2 = sched[i]
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

            if mem:
                # This access's L1D outcome is the stream's next code; a
                # miss probes the L2 now.  Stores retire through the
                # store buffer: the access happens for its side effects
                # but does not extend latency.
                n = loads + stores
                if n >= len(codes):
                    data.extend()
                code = codes[n]
                dl1.accesses += 1
                if code < 0:
                    dlat = lvl0
                else:
                    dl1.misses += 1
                    dl1.evictions += code & 1
                    if l2.access(code >> 1):
                        dlat = lvl1
                    else:
                        dlat = lvl2
                if mem == MEM_LOAD:
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
