"""Branch target buffer.

Set-associative, LRU, allocated on *taken* branches only — the
Calder–Grunwald policy the paper adopts ("only taken branches should
introduce a basic block in the BTB").  Entries store the target and the
branch kind (needed for RAS management), plus a 2-bit direction counter
used by the trace cache's secondary path.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.types import BranchKind
from repro.common.stats import CounterBag


class BTBEntry:
    __slots__ = ("tag", "target", "kind", "counter")

    def __init__(self, tag: int, target: int, kind: BranchKind) -> None:
        self.tag = tag
        self.target = target
        self.kind = kind
        self.counter = 2  # weakly taken: it was just taken

    @property
    def predict_taken(self) -> bool:
        return self.counter >= 2


class BranchTargetBuffer:
    """entries-total, assoc-way BTB indexed by instruction address."""

    def __init__(self, entries: int, assoc: int, name: str = "BTB") -> None:
        if entries % assoc:
            raise ValueError("entries must be divisible by assoc")
        self.num_sets = entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.assoc = assoc
        self.name = name
        # Hot-path event counters as plain ints; see the stats property.
        self.lookups = 0
        self.misses = 0
        self.allocations = 0
        self.evictions = 0
        self._sets: List[List[BTBEntry]] = [[] for _ in range(self.num_sets)]
        self._index_mask = self.num_sets - 1
        # A zero mask shifts by zero, so the unconditional expressions
        # in the hot paths cover the single-set degenerate case too.
        self._tag_shift = self._index_mask.bit_length()

    def _locate(self, pc: int) -> tuple[List[BTBEntry], int]:
        word = pc >> 2
        return self._sets[word & self._index_mask], word >> self._tag_shift

    def lookup(self, pc: int) -> Optional[BTBEntry]:
        """Probe; moves a hit to MRU.  Returns the entry or ``None``."""
        word = pc >> 2
        ways = self._sets[word & self._index_mask]
        tag = word >> self._tag_shift
        self.lookups += 1
        if ways and ways[0].tag == tag:  # MRU fast path
            return ways[0]
        for i, entry in enumerate(ways):
            if entry.tag == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                return entry
        self.misses += 1
        return None

    @property
    def stats(self) -> CounterBag:
        """Counters in mergeable CounterBag form (built on demand)."""
        return CounterBag({
            "lookups": self.lookups,
            "misses": self.misses,
            "allocations": self.allocations,
            "evictions": self.evictions,
        })

    def update(self, pc: int, target: int, kind: BranchKind, taken: bool) -> None:
        """Commit-time update: allocate on taken, train direction bits."""
        word = pc >> 2
        ways = self._sets[word & self._index_mask]
        tag = word >> self._tag_shift
        for i, entry in enumerate(ways):
            if entry.tag == tag:
                # Train the 2-bit direction counter, saturating at 0..3.
                counter = entry.counter
                if taken:
                    if counter < 3:
                        entry.counter = counter + 1
                    entry.target = target
                    entry.kind = kind
                elif counter > 0:
                    entry.counter = counter - 1
                if i:
                    ways.insert(0, ways.pop(i))
                return
        if not taken:
            return  # never allocate on a not-taken branch
        ways.insert(0, BTBEntry(tag, target, kind))
        self.allocations += 1
        if len(ways) > self.assoc:
            ways.pop()
            self.evictions += 1
