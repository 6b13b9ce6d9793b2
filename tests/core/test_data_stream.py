"""Tests for the per-trace L1D data stream (``repro.core.backend.DataStream``).

The stream computes, once per trace and L1D configuration, what every
cell's L1D did before it: synthesize each load/store address from a
per-instruction execution counter and probe an LRU cache with it.  A
plain replay of that walk, keyed the way the scheduler used to key it,
is the reference.
"""

from types import SimpleNamespace

import pytest

from repro.common.params import CacheParams, default_machine
from repro.common.types import InstrClass
from repro.core.backend import DataStream
from repro.experiments.configs import build_processor
from repro.isa.trace import TraceRecord, TraceWalker
from repro.isa.workloads import prepare_program, ref_trace_seed
from repro.memory.cache import Cache

DL1_64K = default_machine(8).memory.dl1
#: The small L1D of ``tests/accel/test_parity.py::_random_machine``.
DL1_16K = CacheParams(size_bytes=16 * 1024, assoc=2, line_bytes=64)

_MEMORY = (int(InstrClass.LOAD), int(InstrClass.STORE))


def plain_replay(blocks, dl1):
    """Codes of a straightforward walk: ``(block addr, slot)`` counters
    and ``Cache.access`` per load/store, in trace order."""
    cache = Cache(dl1)
    counters = {}
    codes = []
    for dyn in blocks:
        for slot, meta in enumerate(dyn.meta):
            cls, _lat, _d1, _d2, base, stride, span = meta
            if cls not in _MEMORY:
                continue
            key = (dyn.addr, slot)
            k = counters.get(key, 0)
            counters[key] = k + 1
            a = base + (k * stride) % (span if span > 0 else 1)
            evictions = cache.evictions
            if cache.access(a):
                codes.append(-1)
            else:
                codes.append((a << 1) | (cache.evictions - evictions))
    return codes, cache


@pytest.fixture(scope="module")
def programs():
    return {bench: prepare_program(bench, optimized=True, scale=0.35)
            for bench in ("gzip", "twolf")}


@pytest.mark.parametrize("dl1", [DL1_64K, DL1_16K], ids=["64k", "16k"])
@pytest.mark.parametrize("bench", ["gzip", "twolf"])
def test_stream_matches_plain_replay(programs, bench, dl1):
    # A record of its own: the stream extends as the record grows.
    record = TraceRecord(programs[bench], ref_trace_seed(bench))
    stream = DataStream(record, dl1)
    for _ in range(3):
        record.extend()
        stream.extend()
    codes, cache = plain_replay(record.blocks, dl1)
    assert len(codes) > 10_000
    assert stream.codes == codes
    ours = stream._cache
    assert (ours.accesses, ours.misses, ours.evictions) == (
        cache.accesses, cache.misses, cache.evictions
    )
    assert cache.accesses == len(codes)
    assert sum(code >= 0 for code in codes) == cache.misses
    assert sum(code & 1 for code in codes if code >= 0) == cache.evictions


def test_two_geometries_get_two_streams(programs):
    record = TraceWalker(programs["twolf"], ref_trace_seed("twolf")).record
    big = record.data_stream(DL1_64K)
    small = record.data_stream(DL1_16K)
    assert big is not small
    assert record.data_stream(DL1_64K) is big
    assert record.data_stream(CacheParams(64 * 1024, 2, 64)) is big
    record.extend()
    big.extend()
    small.extend()
    assert len(big.codes) == len(small.codes)
    assert big.codes != small.codes


def test_cells_of_one_image_share_one_stream(programs):
    seed = ref_trace_seed("gzip")
    cells = [build_processor(arch, programs["gzip"], width,
                             trace_seed=seed, engine_mode="interp")
             for arch, width in (("ev8", 8), ("stream", 2))]
    assert cells[0].backend._data is cells[1].backend._data


def test_load_counter_advances():
    """The k-th execution of a memory instruction touches
    ``base + k * stride``: the counter is keyed on its address."""
    load = (int(InstrClass.LOAD), 1, 0, 0, 0x10000, 64, 1 << 12)
    dyn = SimpleNamespace(addr=0x4000, meta=(load,))
    record = SimpleNamespace(blocks=[dyn, dyn])
    stream = DataStream(record, DL1_64K)
    stream.extend()
    assert stream._counters == {0x4000: 2}
    assert stream.codes == [0x10000 << 1, 0x10040 << 1]
    stream.extend()  # nothing new
    assert len(stream.codes) == 2
