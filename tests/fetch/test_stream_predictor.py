"""Tests for the cascaded next stream predictor (paper §3.2, Fig. 5)."""

import pytest

from repro.common.types import BranchKind
from repro.fetch.stream_predictor import (
    MAX_STREAM_LENGTH,
    NextStreamPredictor,
    StreamPredictorConfig,
    StreamRecord,
)


def rec(start, length=8, kind=BranchKind.COND, nxt=0x9000):
    return StreamRecord(start, length, kind, nxt)


class TestBasics:
    def test_cold_miss(self):
        p = NextStreamPredictor()
        assert p.predict([], 0x1000) is None

    def test_learns_stream(self):
        p = NextStreamPredictor()
        p.update([], rec(0x1000, 12, BranchKind.COND, 0x2000), False)
        pred = p.predict([], 0x1000)
        assert pred is not None
        assert pred.length == 12
        assert pred.next_addr == 0x2000
        assert pred.kind is BranchKind.COND

    def test_table2_geometry(self):
        cfg = StreamPredictorConfig()
        assert cfg.first_entries == 1024 and cfg.first_assoc == 4
        assert cfg.second_entries == 6 * 1024 and cfg.second_assoc == 3
        assert (cfg.dolc.depth, cfg.dolc.older_bits,
                cfg.dolc.last_bits, cfg.dolc.current_bits) == (12, 2, 4, 10)

    def test_record_length_bounds(self):
        with pytest.raises(ValueError):
            StreamRecord(0x1000, 0, BranchKind.COND, 0x2000)
        with pytest.raises(ValueError):
            StreamRecord(0x1000, MAX_STREAM_LENGTH + 1, BranchKind.COND, 0x2000)


class TestHysteresis:
    """The §3.2 replacement policy."""

    def test_matching_update_strengthens(self):
        p = NextStreamPredictor()
        r = rec(0x1000)
        for _ in range(3):
            p.update([], r, False)
        # Now one conflicting update must NOT replace the data.
        p.update([], rec(0x1000, 20, BranchKind.COND, 0x3000), False)
        assert p.predict([], 0x1000).length == 8

    def test_counter_reaches_zero_then_replaces(self):
        p = NextStreamPredictor()
        old = rec(0x1000, 8)
        new = rec(0x1000, 20, BranchKind.COND, 0x3000)
        p.update([], old, False)          # counter = 1
        p.update([], new, False)          # counter 1 -> 0
        p.update([], new, False)          # counter 0 -> replace, counter=1
        assert p.predict([], 0x1000).length == 20

    def test_majority_stream_survives_minority(self):
        """An 80%-not-taken branch: the long stream stays resident."""
        p = NextStreamPredictor()
        long_stream = rec(0x1000, 24, BranchKind.COND, 0x2000)
        short_stream = rec(0x1000, 6, BranchKind.COND, 0x1800)
        for _ in range(40):
            for _ in range(4):
                p.update([], long_stream, False)
            p.update([], short_stream, False)
        assert p.predict([], 0x1000).length == 24


class TestCascade:
    def test_path_table_wins_on_conflict(self):
        """Overlapping streams disambiguated by path correlation."""
        p = NextStreamPredictor()
        path_a = [0x100, 0x200, 0x300]
        path_b = [0x500, 0x600, 0x700]
        stream_a = rec(0x1000, 10, BranchKind.COND, 0x2000)
        stream_b = rec(0x1000, 30, BranchKind.COND, 0x3000)
        for _ in range(6):
            p.update(path_a, stream_a, True)   # mispredicted -> upgraded
            p.update(path_b, stream_b, True)
        path_hits = p.path_hits
        pred_a = p.predict(path_a, 0x1000)
        pred_b = p.predict(path_b, 0x1000)
        assert pred_a.length == 10
        assert pred_b.length == 30
        # At least one of the two came from the path table.
        assert p.path_hits > path_hits

    def test_loop_trip_counting(self):
        """The cascade predicts a fixed-trip loop exit via the path."""
        p = NextStreamPredictor()
        body = rec(0x100, 10, BranchKind.COND, 0x100)
        exit_ = rec(0x100, 22, BranchKind.COND, 0x300)
        tail = rec(0x300, 6, BranchKind.JUMP, 0x50)
        entry = rec(0x50, 8, BranchKind.COND, 0x100)
        seq = [entry, body, body, body, exit_, tail]

        hist = []
        correct = total = 0
        for round_ in range(120):
            for r in seq:
                pred = p.predict(hist, r.start)
                ok = (pred is not None and pred.length == r.length
                      and pred.next_addr == r.next_addr)
                if round_ >= 20:
                    total += 1
                    correct += ok
                p.update(hist, r, not ok)
                hist.append(r.start)
                if len(hist) > 12:
                    hist.pop(0)
        assert correct / total > 0.95

    def test_upgrade_only_on_mispredict(self):
        """Streams that the first level predicts fine never enter the
        second table (the anti-aliasing rule of §3.2)."""
        p = NextStreamPredictor()
        r = rec(0x1000)
        p.update([0x10], r, False)   # first appearance: enters both
        for _ in range(10):
            p.update([0x20, 0x30], r, False)  # different paths, no misp
        assert p.stats["upgrades"] == 0


class TestAliasing:
    def test_different_tags_coexist_in_set(self):
        p = NextStreamPredictor()
        # Two addresses mapping to (likely) different tags.
        p.update([], rec(0x1000, 8), False)
        p.update([], rec(0x1000 + 4 * 1024 * 1024, 16), False)
        assert p.predict([], 0x1000).length == 8

    def test_stats_track_sources(self):
        p = NextStreamPredictor()
        p.update([], rec(0x1000), False)
        p.predict([], 0x1000)
        assert p.stats["address_hits"] + p.stats["path_hits"] == 1
