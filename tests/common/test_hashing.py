"""Tests for the DOLC path hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.common.hashing import (
    DolcHasher,
    DolcSpec,
    fold_xor,
    make_t1_index_tag,
)

STREAM_SPEC = DolcSpec(depth=12, older_bits=2, last_bits=4, current_bits=10)
TRACE_SPEC = DolcSpec(depth=9, older_bits=4, last_bits=7, current_bits=9)

addrs = st.integers(min_value=0x1000, max_value=0x200000).map(lambda a: a & ~3)


class TestFoldXor:
    def test_small_value_unchanged(self):
        assert fold_xor(0x5, 8) == 0x5

    def test_folds_high_bits(self):
        assert fold_xor(0x100, 8) == 0x1

    def test_zero(self):
        assert fold_xor(0, 8) == 0

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            fold_xor(5, 0)

    def test_negative_input_terminates(self):
        """Regression: a negative value must not loop forever (Python's
        >> keeps negatives at -1)."""
        assert 0 <= fold_xor(-17, 11) < (1 << 11)

    @given(st.integers(min_value=0, max_value=2**64), st.integers(1, 24))
    def test_in_range(self, value, width):
        assert 0 <= fold_xor(value, width) < (1 << width)


class TestDolcSpec:
    def test_paper_specs_total_bits(self):
        assert STREAM_SPEC.total_bits == 11 * 2 + 4 + 10
        assert TRACE_SPEC.total_bits == 8 * 4 + 7 + 9

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            DolcSpec(depth=0, older_bits=1, last_bits=1, current_bits=1)


class TestDolcHasher:
    def test_deterministic(self):
        h = DolcHasher(STREAM_SPEC, 11)
        hist = [0x1000, 0x2000, 0x3000]
        assert h.index(hist, 0x4000) == h.index(list(hist), 0x4000)

    def test_empty_history_ok(self):
        h = DolcHasher(STREAM_SPEC, 11)
        assert 0 <= h.index([], 0x4000) < (1 << 11)

    def test_history_changes_index_often(self):
        """Different paths to the same address should usually hash apart."""
        h = DolcHasher(STREAM_SPEC, 11)
        base = [0x1000 + 16 * i for i in range(11)]
        collisions = 0
        trials = 200
        for i in range(trials):
            other = list(base)
            other[-1] = 0x9000 + 16 * i
            if h.index(base, 0x4000) == h.index(other, 0x4000):
                collisions += 1
        assert collisions < trials * 0.2

    def test_repeated_address_counting(self):
        """Histories differing only in repeat count must hash apart —
        this is what lets the cascade count loop iterations."""
        h = DolcHasher(STREAM_SPEC, 11)
        seen = {
            h.index([0x500] + [0x100] * k, 0x100) for k in range(1, 8)
        }
        assert len(seen) > 4

    @given(st.lists(addrs, max_size=16), addrs)
    def test_index_in_range(self, history, current):
        h = DolcHasher(TRACE_SPEC, 10)
        assert 0 <= h.index(history, current) < (1 << 10)

    @given(st.lists(addrs, min_size=8, max_size=16), addrs)
    def test_long_history_only_uses_window(self, history, current):
        """Entries older than the DOLC depth must not affect the hash."""
        h = DolcHasher(TRACE_SPEC, 10)
        window = history[-(TRACE_SPEC.depth - 1):]
        padded = [0xDEAD00, 0xBEEF00] + window
        assert h.index(padded, current) == h.index(window, current)

    def test_tag_disambiguates(self):
        h = DolcHasher(STREAM_SPEC, 11)
        t1 = h.tag([0x1000], 0x4000)
        t2 = h.tag([0x2000], 0x4000)
        assert t1 != t2

    @pytest.mark.parametrize("spec, bits", [(STREAM_SPEC, 11),
                                            (TRACE_SPEC, 10)])
    @given(history=st.lists(addrs, max_size=16), current=addrs)
    def test_index_tag_matches_index_and_tag(self, spec, bits, history,
                                             current):
        """The memoized one-pass pair the predictors use equals the
        reference pair, for windows shorter than, equal to and longer
        than the depth; the second call is answered by the memo."""
        h = DolcHasher(spec, bits)
        want = (h.index(history, current), h.tag(history, current))
        assert h.index_tag(history, current) == want
        assert h.index_tag(history, current) == want


class TestT1IndexTag:
    @given(st.integers(1, 16), addrs)
    def test_matches_reference_fold(self, bits, addr):
        """The memoized first-level hasher equals its reference fold,
        on the first call and on the memo hit that follows."""
        t1_index_tag = make_t1_index_tag(bits)
        want = (fold_xor(addr >> 2, bits), (addr >> 2) >> bits)
        assert t1_index_tag(addr) == want
        assert t1_index_tag(addr) == want
