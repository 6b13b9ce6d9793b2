"""Tests for the set-associative cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import CacheParams
from repro.memory.cache import Cache


def small_cache(assoc=2, sets=4, line=64) -> Cache:
    return Cache(CacheParams(size_bytes=assoc * sets * line,
                             assoc=assoc, line_bytes=line))


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert c.access(0x1000) is False
        assert c.access(0x1000) is True

    def test_same_line_different_offsets_hit(self):
        c = small_cache(line=64)
        c.access(0x1000)
        assert c.access(0x103C) is True

    def test_adjacent_lines_are_distinct(self):
        c = small_cache(line=64)
        c.access(0x1000)
        assert c.access(0x1040) is False

    def test_probe_does_not_fill(self):
        c = small_cache()
        assert c.probe(0x1000) is False
        assert c.access(0x1000) is False  # still a miss

    def test_fill_then_probe(self):
        c = small_cache()
        c.access(0x1000)  # a miss fills the line
        assert c.probe(0x1000) is True


class TestLRU:
    def test_eviction_order(self):
        c = small_cache(assoc=2, sets=1, line=64)
        c.access(0x000)   # A
        c.access(0x040)   # B
        c.access(0x000)   # touch A -> B is LRU
        c.access(0x080)   # C evicts B
        assert c.probe(0x000) is True
        assert c.probe(0x040) is False
        assert c.probe(0x080) is True

    def test_capacity_respected(self):
        c = small_cache(assoc=2, sets=4)
        for i in range(100):
            c.access(i * 64)
        assert c.resident_lines() <= 8

    def test_stats(self):
        c = small_cache()
        c.access(0x1000)
        c.access(0x1000)
        assert c.stats["accesses"] == 2
        assert c.stats["misses"] == 1
        assert c.miss_rate == pytest.approx(0.5)


class TestWorkingSets:
    def test_working_set_within_capacity_all_hits(self):
        c = small_cache(assoc=4, sets=16, line=64)  # 4KB
        lines = [i * 64 for i in range(32)]
        for addr in lines:
            c.access(addr)
        hits = sum(c.access(addr) for addr in lines)
        assert hits == len(lines)

    def test_streaming_larger_than_capacity_all_misses(self):
        c = small_cache(assoc=2, sets=4, line=64)  # 512B
        misses = 0
        for round_ in range(3):
            for i in range(64):
                misses += not c.access(i * 64)
        assert misses == 3 * 64  # LRU streams never re-hit


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                max_size=300))
def test_property_hit_iff_recently_used(addresses):
    """A reference hits iff its line is among the `assoc` most recently
    used distinct lines mapping to the same set (true-LRU semantics)."""
    assoc, sets, line = 2, 4, 64
    c = small_cache(assoc=assoc, sets=sets, line=line)
    model = {}  # set index -> list of tags, MRU first
    for addr in addresses:
        line_addr = addr // line
        index = line_addr % sets
        tag = line_addr // sets
        ways = model.setdefault(index, [])
        expected_hit = tag in ways
        assert c.access(addr) == expected_hit
        if tag in ways:
            ways.remove(tag)
        ways.insert(0, tag)
        del ways[assoc:]


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=1 << 18), min_size=1,
                max_size=200))
def test_property_resident_lines_bounded(addresses):
    c = small_cache(assoc=2, sets=8)
    for addr in addresses:
        c.access(addr)
    assert c.resident_lines() <= 16


class TestFastCounters:
    """The hot-path counters are plain ints; stats is a derived view."""

    def test_int_attributes_track_events(self):
        c = small_cache(assoc=2, sets=1)
        c.access(0x000)           # miss
        c.access(0x000)           # hit
        c.access(0x040)           # miss
        c.access(0x080)           # miss + eviction
        assert c.accesses == 4
        assert c.misses == 3
        assert c.evictions == 1

    def test_stats_view_matches_ints(self):
        c = small_cache()
        for i in range(20):
            c.access((i % 6) * 64)
        stats = c.stats
        assert stats["accesses"] == c.accesses == 20
        assert stats["misses"] == c.misses
        assert stats["evictions"] == c.evictions

    def test_probe_touches_nothing(self):
        c = small_cache()
        c.probe(0x1000)
        assert c.accesses == 0
        assert c.misses == 0

    def test_miss_rate_from_ints(self):
        c = small_cache()
        assert c.miss_rate == 0.0
        c.access(0x1000)
        c.access(0x1000)
        c.access(0x1000)
        assert c.miss_rate == pytest.approx(1 / 3)

    def test_mru_fast_path_preserves_lru(self):
        """Repeated MRU touches must not disturb the LRU order."""
        c = small_cache(assoc=2, sets=1)
        c.access(0x000)   # A
        c.access(0x040)   # B (MRU)
        c.access(0x040)   # B again via the fast path
        c.access(0x040)   # and again
        c.access(0x080)   # C evicts A (the true LRU), not B
        assert c.probe(0x040) is True
        assert c.probe(0x000) is False


class _ReferenceCache:
    """A test-local copy of an earlier ``Cache.access``: the non-MRU
    path removes the tag and treats ``ValueError`` as a miss."""

    def __init__(self, cache):
        self.accesses = self.misses = self.evictions = 0
        self._sets = [[] for _ in cache._sets]
        self._offset_bits = cache._offset_bits
        self._index_mask = cache._index_mask
        self._tag_shift = cache._tag_shift
        self._assoc = cache._assoc

    def access(self, addr):
        line = addr >> self._offset_bits
        ways = self._sets[line & self._index_mask]
        tag = line >> self._tag_shift
        self.accesses += 1
        if ways and ways[0] == tag:
            return True
        try:
            ways.remove(tag)
        except ValueError:
            self.misses += 1
            ways.insert(0, tag)
            if len(ways) > self._assoc:
                ways.pop()
                self.evictions += 1
            return False
        ways.insert(0, tag)
        return True


def _state(cache):
    return (cache._sets, cache.accesses, cache.misses, cache.evictions)


def _tail_access(cache, addr):
    """What the accel kernels do: the MRU check and the access count in
    line, then ``access_tail`` for everything else."""
    line = addr >> cache._offset_bits
    ways = cache._sets[line & cache._index_mask]
    tag = line >> cache._tag_shift
    cache.accesses += 1
    return bool(ways and ways[0] == tag) or cache.access_tail(ways, tag)


class TestReferenceDifferential:
    """``access`` and ``access_tail`` against the reference: return
    value, LRU order and counters on each kind of probe."""

    # One set, two ways: A, then B, puts A at the LRU end.
    CASES = {
        "mru_hit": [0x000, 0x040, 0x040],
        "non_mru_hit": [0x000, 0x040, 0x000],
        "miss_without_eviction": [0x000, 0x040],
        "miss_with_eviction": [0x000, 0x040, 0x080],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("entry", ["access", "access_tail"])
    def test_each_kind_of_probe(self, case, entry):
        cache = small_cache(assoc=2, sets=1)
        ref = _ReferenceCache(cache)
        probe = cache.access if entry == "access" else (
            lambda addr: _tail_access(cache, addr))
        for addr in self.CASES[case]:
            assert probe(addr) == ref.access(addr)
            assert _state(cache) == _state(ref)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 14),
                    max_size=300),
           st.sampled_from(["access", "access_tail"]))
    def test_random_sequences(self, addresses, entry):
        cache = small_cache(assoc=4, sets=4)
        ref = _ReferenceCache(cache)
        probe = cache.access if entry == "access" else (
            lambda addr: _tail_access(cache, addr))
        for addr in addresses:
            assert probe(addr) == ref.access(addr)
        assert _state(cache) == _state(ref)
