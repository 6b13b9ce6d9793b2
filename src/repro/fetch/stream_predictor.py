"""The cascaded next stream predictor (paper §3.2, Fig. 5).

Two tables of stream descriptors:

* a first-level table indexed by the current fetch address only
  (Table 2: 1K entries, 4-way);
* a second-level table indexed by a DOLC hash of the path of previous
  stream starting addresses (Table 2: 6K entries, 3-way, DOLC 12-2-4-10).

Each entry holds one stream: starting-address tag, length, terminating
branch type (for RAS management), next stream address, and a 2-bit
hysteresis counter implementing the replacement policy:

* update with matching data -> counter saturating increment;
* update with different data -> counter decrement; at zero the old data
  is replaced (length *and* target) and the counter is set to one.

Allocation follows the paper: a stream enters *both* tables on its first
appearance; afterwards each table is refreshed independently.  A stream
only present in the first table is *upgraded* into the second table when
it is mispredicted; streams that do not need path correlation therefore
never pollute the second table.

The hysteresis counters are what let the predictor hold *overlapping*
streams — the property that lets it ignore an 80%-not-taken branch in
all its not-taken instances instead of splitting the fetch block the way
the FTB must.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.hashing import (
    DolcHasher, DolcSpec, make_t1_index_tag, shared_t1_cache,
)
from repro.common.stats import CounterBag
from repro.common.types import BranchKind

#: Longest stream one predictor entry can describe (length field width).
MAX_STREAM_LENGTH = 64


@dataclass(frozen=True)
class StreamPredictorConfig:
    """Table 2 geometry of the next stream predictor."""

    first_entries: int = 1024
    first_assoc: int = 4
    second_entries: int = 6 * 1024
    second_assoc: int = 3
    dolc: DolcSpec = DolcSpec(depth=12, older_bits=2, last_bits=4, current_bits=10)

    @property
    def first_sets(self) -> int:
        return self.first_entries // self.first_assoc

    @property
    def second_sets(self) -> int:
        return self.second_entries // self.second_assoc


class StreamRecord:
    """A completed (committed) instruction stream.

    A plain ``__slots__`` class rather than a dataclass: one is built
    per committed stream (and per predictor update), which makes its
    constructor a measurable hot path.  Treat instances as immutable.
    """

    __slots__ = ("start", "length", "kind", "next_addr")

    def __init__(
        self, start: int, length: int, kind: BranchKind, next_addr: int
    ) -> None:
        if not 1 <= length <= MAX_STREAM_LENGTH:
            raise ValueError(f"stream length {length} out of range")
        self.start = start
        self.length = length
        # Terminating branch type; NONE = capped/sequential.
        self.kind = kind
        self.next_addr = next_addr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StreamRecord(@{self.start:#x} +{self.length} "
                f"{self.kind.name} -> {self.next_addr:#x})")


class _Entry:
    """One table entry; :meth:`NextStreamPredictor.predict` returns it.

    The fetch engine reads ``length``, ``kind`` and ``next_addr`` at
    once, before any update can change them.
    """

    __slots__ = ("tag", "length", "kind", "next_addr", "counter")

    def __init__(self, tag: int, record: StreamRecord) -> None:
        self.tag = tag
        self.length = record.length
        self.kind = record.kind
        self.next_addr = record.next_addr
        self.counter = 1

    def matches(self, record: StreamRecord) -> bool:
        return (
            self.length == record.length
            and self.next_addr == record.next_addr
            and self.kind == record.kind
        )

    def replace_with(self, record: StreamRecord) -> None:
        self.length = record.length
        self.kind = record.kind
        self.next_addr = record.next_addr
        self.counter = 1


class _StreamTable:
    """One set-associative stream table with hysteresis replacement."""

    def __init__(self, sets: int, assoc: int) -> None:
        if sets & (sets - 1):
            raise ValueError("set count must be a power of two")
        self.sets = sets
        self.assoc = assoc
        self._sets: List[List[_Entry]] = [[] for _ in range(sets)]

    def update(self, index: int, tag: int, record: StreamRecord,
               allow_allocate: bool) -> bool:
        """Hysteresis update; optionally allocate on a tag miss.

        Returns whether the tag was present *before* the update — the
        commit path needs (presence, update) as a pair, and answering
        both from one way scan halves the hottest table walks.
        """
        ways = self._sets[index & (self.sets - 1)]
        for i, entry in enumerate(ways):
            if entry.tag == tag:
                if entry.matches(record):
                    if entry.counter < 3:
                        entry.counter += 1
                elif entry.counter == 0:
                    entry.replace_with(record)
                else:
                    entry.counter -= 1
                if i:
                    ways.insert(0, ways.pop(i))
                return True
        if not allow_allocate:
            return False
        if len(ways) < self.assoc:
            ways.insert(0, _Entry(tag, record))
            return False
        # Full set: replace the entry with the weakest hysteresis
        # counter (ties broken towards LRU).  The counter is the
        # replacement-policy metric of the paper's §3.2.
        victim = min(
            range(len(ways)), key=lambda i: (ways[i].counter, -i)
        )
        entry = ways.pop(victim)
        entry.tag = tag
        entry.replace_with(record)
        ways.insert(0, entry)
        return False


class NextStreamPredictor:
    """Cascaded (address + path) next stream predictor.

    ``predict`` runs in one frame on its common path: it probes the
    address and path index/tag memos inline (a hasher runs only on a
    memo miss) and scans both tables' ways itself.  ``update`` probes
    the same memos inline and makes one positional call per table.
    """

    def __init__(self, config: StreamPredictorConfig | None = None) -> None:
        self.config = config or StreamPredictorConfig()
        cfg = self.config
        self._t1 = _StreamTable(cfg.first_sets, cfg.first_assoc)
        self._t2 = _StreamTable(cfg.second_sets, cfg.second_assoc)
        self._t1_sets = self._t1._sets
        self._t2_sets = self._t2._sets
        self._t1_mask = cfg.first_sets - 1
        self._t2_mask = cfg.second_sets - 1
        t1_bits = cfg.first_sets.bit_length() - 1
        self._t1_index_tag = make_t1_index_tag(t1_bits)
        self._t1_get = shared_t1_cache(t1_bits).get
        self._hasher = DolcHasher(cfg.dolc, cfg.second_sets.bit_length() - 1)
        self._t2_get = self._hasher._it_cache.get
        self._t2_cut = self._hasher.window_cut
        # Hot-path event counters as plain ints; see the stats property.
        self.lookups = 0
        self.misses = 0
        self.path_hits = 0
        self.address_hits = 0
        self.updates = 0
        self.upgrades = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CounterBag:
        """Counters in mergeable CounterBag form (built on demand)."""
        return CounterBag({
            "lookups": self.lookups,
            "misses": self.misses,
            "path_hits": self.path_hits,
            "address_hits": self.address_hits,
            "updates": self.updates,
            "upgrades": self.upgrades,
        })

    # ------------------------------------------------------------------
    def predict(
        self, history: Sequence[int], fetch_addr: int
    ) -> Optional[_Entry]:
        """Look up both tables; a path-table hit wins (paper §3.2).

        Returns the winning table entry, or None on a miss in both.
        """
        i1, t1 = (self._t1_get(fetch_addr)
                  or self._t1_index_tag(fetch_addr))
        ways = self._t1_sets[i1 & self._t1_mask]
        for e1 in ways:
            if e1.tag == t1:
                if e1 is not ways[0]:  # a hit moves to MRU
                    ways.remove(e1)
                    ways.insert(0, e1)
                break
        else:
            e1 = None
        i2, t2 = (self._t2_get((fetch_addr, tuple(history[self._t2_cut:])))
                  or self._hasher.index_tag(history, fetch_addr))
        ways = self._t2_sets[i2 & self._t2_mask]
        for e2 in ways:
            if e2.tag == t2:
                if e2 is not ways[0]:
                    ways.remove(e2)
                    ways.insert(0, e2)
                break
        else:
            e2 = None
        self.lookups += 1
        if e2 is not None:
            self.path_hits += 1
            return e2
        if e1 is None:
            self.misses += 1
            return None
        self.address_hits += 1
        return e1

    # ------------------------------------------------------------------
    def update(
        self,
        history: Sequence[int],
        record: StreamRecord,
        mispredicted: bool,
    ) -> None:
        """Commit-time update with a completed stream.

        ``history`` is the commit-side path history *before* this stream
        (mirroring the lookup-side indexing).  Allocation policy:

        * absent from both tables (first appearance): allocate in both;
        * present only in the first table: allocate into the second only
          when the stream was mispredicted (the upgrade rule);
        * present in a table: hysteresis refresh.
        """
        start = record.start
        i1, t1 = self._t1_get(start) or self._t1_index_tag(start)
        i2, t2 = (self._t2_get((start, tuple(history[self._t2_cut:])))
                  or self._hasher.index_tag(history, start))
        # One fused scan per table: ``update`` reports prior presence.
        # A present t2 entry updates regardless of the allocate flag,
        # and an absent one may allocate exactly when the original
        # ``in_t2 or first_appearance or mispredicted`` rule allowed it
        # (absent means that reduces to ``not in_t1 or mispredicted``).
        in_t1 = self._t1.update(i1, t1, record, True)
        in_t2 = self._t2.update(i2, t2, record, not in_t1 or mispredicted)
        self.updates += 1
        if mispredicted and not in_t2:
            self.upgrades += 1
