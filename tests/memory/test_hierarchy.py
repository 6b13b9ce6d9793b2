"""Tests for the Table 2 memory hierarchy."""

import pytest
from helpers import ExplicitCodes

from repro.common.params import default_machine, default_memory
from repro.core.backend import DataflowBackend
from repro.isa.program import MEM_LOAD, MEM_STORE
from repro.memory.hierarchy import MemoryHierarchy


@pytest.fixture
def mem() -> MemoryHierarchy:
    return MemoryHierarchy(default_memory(8))


def _fetch(mem, addr):
    """Cycles an I-fetch adds to the L1I hit, on the engines' path
    (``FetchEngine._fetch_line``): an L1I access, then on a miss the
    fill from the L2."""
    return 0 if mem.il1.access(addr) else mem._fill_from_l2_instr(addr)


class TestInstructionSide:
    def test_cold_fetch_pays_memory(self, mem):
        assert _fetch(mem, 0x1000) == 15 + 100

    def test_warm_fetch_is_l1_hit(self, mem):
        _fetch(mem, 0x1000)
        assert _fetch(mem, 0x1000) == 0

    def test_l2_hit_after_l1_eviction(self, mem):
        _fetch(mem, 0x1000)
        # Evict from 64KB 2-way L1I by touching two conflicting lines.
        line = mem.params.il1.line_bytes
        way_stride = mem.params.il1.num_sets * line
        _fetch(mem, 0x1000 + way_stride)
        _fetch(mem, 0x1000 + 2 * way_stride)
        assert _fetch(mem, 0x1000) == 15  # L2 still holds it

    def test_wide_line_spans_multiple_l2_lines(self, mem):
        # 128B L1I line = two 64B L2 lines; both get filled.
        _fetch(mem, 0x2000)
        assert mem.l2.probe(0x2000)
        assert mem.l2.probe(0x2040)


def _data_latency(mem, slot, code):
    """Latency of one memory op dispatched at cycle 0 through a back end
    over ``mem``, the L1D outcome given by ``code``."""
    be = DataflowBackend(default_machine(8), mem, ExplicitCodes([code]))
    complete, _ = be.dispatch_segment((slot,), 0, 1, 0)
    return complete - 1  # issued at cycle 1


_LOAD = (MEM_LOAD, 1, 0, 0)
_STORE = (MEM_STORE, 1, 0, 0)


class TestDataSide:
    """The data side: the back end adds ``_lvl_lat`` to a load's base
    latency by the level that held the line, and probes the L2 here on
    an L1D miss."""

    def test_cold_load(self, mem):
        be = DataflowBackend(default_machine(8), mem, ExplicitCodes([]))
        assert tuple(1 + lat for lat in be._lvl_lat) == (
            1, 1 + 15, 1 + 15 + 100
        )
        assert _data_latency(mem, _LOAD, 0x50000 << 1) == 1 + 15 + 100

    def test_warm_load(self, mem):
        assert _data_latency(mem, _LOAD, -1) == 1

    def test_store_fills_too(self, mem):
        _data_latency(mem, _STORE, 0x60000 << 1)
        assert mem.l2.probe(0x60000)
        assert _data_latency(mem, _LOAD, 0x60000 << 1) == 1 + 15

    def test_stats_summary_keys(self, mem):
        _fetch(mem, 0x1000)
        _data_latency(mem, _LOAD, 0x2000 << 1)
        stats = mem.stats_summary()
        for key in ("il1_misses", "dl1_misses", "l2_misses",
                    "il1_miss_rate", "dl1_miss_rate"):
            assert key in stats
        assert (stats["dl1_accesses"], stats["dl1_misses"]) == (1, 1)


class TestSharedL2:
    def test_instruction_and_data_share_l2(self, mem):
        _fetch(mem, 0x1000)          # fills L2 with 0x1000 (as data too)
        latency = _data_latency(mem, _LOAD, 0x1000 << 1)
        assert latency == 1 + 15     # L2 hit thanks to the I-side fill
