"""Tests for the dataflow back-end model."""

import hashlib
import json

from helpers import ExplicitCodes
from hypothesis import given, settings, strategies as st

from repro.common.params import default_machine
from repro.core.backend import DataflowBackend
from repro.isa.program import MEM_LOAD, MEM_STORE
from repro.memory.hierarchy import MemoryHierarchy


def miss(addr, evicted=0):
    return (addr << 1) | evicted


HIT = -1


def backend(width=8, codes=()):
    machine = default_machine(width)
    return DataflowBackend(machine, MemoryHierarchy(machine.memory),
                           ExplicitCodes(codes))


def alu(d1=0, d2=0, latency=1):
    return (0, latency, d1, d2)


def load(d1=0):
    return (MEM_LOAD, 1, d1, 0)


def store():
    return (MEM_STORE, 1, 0, 0)


def dispatch(be, slot, dispatch_cycle):
    """Schedule one instruction: a one-slot segment."""
    return be.dispatch_segment((slot,), 0, 1, dispatch_cycle)


class TestScheduling:
    def test_independent_instructions_pack_width(self):
        be = backend(width=4)
        completes = [dispatch(be, alu(), 0)[0] for _ in range(8)]
        # 4 issue slots per cycle: two waves.
        assert completes.count(min(completes)) == 4

    def test_dependence_serializes(self):
        be = backend()
        c1, _ = dispatch(be, alu(), 0)
        c2, _ = dispatch(be, alu(d1=1), 0)
        assert c2 >= c1 + 1

    def test_zero_dep_is_independent(self):
        be = backend()
        dispatch(be, alu(), 0)
        c2, _ = dispatch(be, alu(), 0)
        c1, _ = dispatch(be, alu(), 0)
        assert abs(c1 - c2) <= 1

    def test_commits_in_order(self):
        be = backend()
        commits = []
        for i in range(50):
            meta = alu(d1=(1 if i % 7 == 0 else 0))
            commits.append(dispatch(be, meta, i // 8)[1])
        assert commits == sorted(commits)

    def test_commit_width_bounded(self):
        be = backend(width=2)
        commits = [dispatch(be, alu(), 0)[1] for _ in range(20)]
        from collections import Counter
        per_cycle = Counter(commits)
        assert max(per_cycle.values()) <= 2

    def test_dispatch_cycle_lower_bound(self):
        be = backend()
        complete, _ = dispatch(be, alu(), 100)
        assert complete >= 101


class TestMemoryInstructions:
    def test_load_miss_extends_latency(self):
        be = backend(codes=[miss(0x10000)])
        c_hit_path, _ = dispatch(be, alu(), 0)
        # Cold load: misses L1D and L2 -> long completion.
        c_load, _ = dispatch(be, load(), 0)
        assert c_load > c_hit_path + 50

    def test_load_locality_warms_up(self):
        be = backend(codes=[miss(0x10000), HIT])
        first, _ = dispatch(be, load(), 0)
        second, _ = dispatch(be, load(), 200)
        # The re-touch hits the L1D.
        assert second - 200 < first - 0

    def test_l1d_miss_probes_the_l2(self):
        """An L1D miss goes on to the cell's own L2: a second miss on
        the same line finds it there."""
        be = backend(codes=[miss(0x10000), miss(0x10000)])
        first, _ = dispatch(be, load(), 0)
        second, _ = dispatch(be, load(), 500)
        assert first == 1 + 1 + 15 + 100
        assert second == 501 + 1 + 15
        assert (be.mem.l2.accesses, be.mem.l2.misses) == (2, 1)

    def test_stores_do_not_stall_completion(self):
        be = backend(codes=[miss(0x90000)])
        complete, _ = dispatch(be, store(), 0)
        assert complete <= 3  # store-buffer semantics

    def test_codes_publish_the_l1d_counters(self):
        be = backend(codes=[HIT, miss(0x10000, evicted=1), miss(0x20000)])
        for slot in (load(), store(), load()):
            dispatch(be, slot, 0)
        dl1 = be.mem.dl1
        assert (dl1.accesses, dl1.misses, dl1.evictions) == (3, 2, 1)
        assert (be.load_accesses, be.store_accesses) == (2, 1)
        assert dl1.resident_lines() == 0  # the stream owns the L1D state

class TestWindowModel:
    def test_instruction_count(self):
        be = backend()
        for _ in range(10):
            dispatch(be, alu(), 0)
        assert be.instructions == 10

    def test_last_commit_monotone(self):
        be = backend()
        last = 0
        for i in range(100):
            _, commit = dispatch(be, alu(d1=i % 3), i // 8)
            assert commit >= last
            last = commit

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=120))
    def test_property_ipc_never_exceeds_width(self, deps):
        be = backend(width=4)
        n = 0
        for i, (d1, d2) in enumerate(deps):
            dispatch(be, alu(d1=d1, d2=d2), i // 4)
            n += 1
        assert n / max(be.last_commit_cycle, 1) <= 4.0 + 1e-9


class TestCompaction:
    """Issue-table compaction through the interpreted oracle.

    Once the table tracks more than ``_IU_LIMIT`` (4,096) cycles, every
    insert drops the cycles older than ``issue - _IU_LAG`` (256), and
    the issue floor rises to that bound; it never falls.
    """

    def test_plain_compaction(self):
        be = backend(width=2)
        for _ in range(8194):
            complete, _ = dispatch(be, alu(), 0)
        # 8,192 ops fill cycles 1..4,096; the next opens cycle 4,097,
        # which compacts the table to cycles 3,841..4,097.
        assert be._issue_floor == 3841
        assert complete == 4098
        assert len(be._iu) == 257

    def test_over_full_table_below_the_lag(self):
        """A table that overflows before issue reaches ``_IU_LAG``
        compacts on every insert.  It drops nothing, and the floor
        stays at 0, until issue passes 256; then the floor follows
        issue up."""
        be = backend(width=2)
        dispatch(be, alu(latency=10_000), 0)
        for _ in range(1, 4096):  # a chain on cycles 10,001..14,095
            dispatch(be, alu(d1=1), 0)
        timings = []
        for i in range(600):
            complete, commit = dispatch(be, alu(), 0)
            timings.append((complete, commit, be._issue_floor))
            if i == 1:
                assert len(be._iu) == 4097
        assert timings[-1] == (302, 14397, 45)
        digest = hashlib.sha256(json.dumps(timings).encode()).hexdigest()
        assert digest == (
            "d17d06e414660db0dde6963034c6071b22c9db7d69f4f7248886e41269e7c0e3"
        )
