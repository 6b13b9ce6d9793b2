"""The Table 2 memory hierarchy: L1I + L1D + unified L2 + memory.

Latency model: an access pays the hit latency of the first level that
holds the data.  On an L1 miss the line is filled into L1 (and into L2 if
it also missed there).  The instruction side fetches whole (potentially
very wide) L1I lines; when an L1I line is wider than an L2 line, each
constituent L2 line is probed and the worst latency applies — the
single-ported wide read the paper adopts in §3.4.

The data side is driven by the back end
(:mod:`repro.core.backend`): each trace's data stream holds the L1D
outcome of every load and store, ``dl1`` keeps the published L1D
counters, and an L1D miss probes ``l2`` here.
"""

from __future__ import annotations

from repro.common.params import MemoryParams
from repro.memory.cache import Cache


class MemoryHierarchy:
    """Owns the caches and answers latency queries."""

    __slots__ = ("params", "il1", "dl1", "l2",
                 "_dl1_hit", "_l2_lat", "_mem_lat")

    def __init__(self, params: MemoryParams) -> None:
        self.params = params
        self.il1 = Cache(params.il1, "L1I")
        self.dl1 = Cache(params.dl1, "L1D")
        self.l2 = Cache(params.l2, "L2")
        # Latency constants, hoisted out of the per-access paths.
        self._dl1_hit = params.dl1.hit_latency
        self._l2_lat = params.l2_latency
        self._mem_lat = params.memory_latency

    # ------------------------------------------------------------------
    # instruction side
    # ------------------------------------------------------------------
    def _fill_from_l2_instr(self, addr: int) -> int:
        """Fill the L1I line holding ``addr`` from the L2 after an L1I
        miss; returns the latency it adds to the L1I hit."""
        il1_line = self.params.il1.line_bytes
        l2_line = self.params.l2.line_bytes
        start = addr - (addr % il1_line)
        worst = 0
        l2_access = self.l2.access
        for chunk in range(start, start + il1_line, l2_line):
            if l2_access(chunk):
                latency = self._l2_lat
            else:
                latency = self._l2_lat + self._mem_lat
            if latency > worst:
                worst = latency
        return worst

    # ------------------------------------------------------------------
    def stats_summary(self) -> dict:
        il1, dl1, l2 = self.il1, self.dl1, self.l2
        return {
            "il1_accesses": il1.accesses,
            "il1_misses": il1.misses,
            "il1_miss_rate": il1.miss_rate,
            "dl1_accesses": dl1.accesses,
            "dl1_misses": dl1.misses,
            "dl1_miss_rate": dl1.miss_rate,
            "l2_accesses": l2.accesses,
            "l2_misses": l2.misses,
            "l2_miss_rate": l2.miss_rate,
        }
