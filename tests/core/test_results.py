"""Tests for SimulationResult derived metrics."""

import pytest

from repro.core.results import SimulationResult


def make(**kwargs):
    defaults = dict(benchmark="x", engine="stream", width=8,
                    optimized=True, cycles=1000, instructions=2500)
    defaults.update(kwargs)
    return SimulationResult(**defaults)


class TestDerivedMetrics:
    def test_ipc(self):
        assert make().ipc == pytest.approx(2.5)

    def test_ipc_zero_cycles(self):
        assert make(cycles=0).ipc == 0.0

    def test_fetch_ipc(self):
        r = make(fetch_cycles=100, fetched_instructions=640)
        assert r.fetch_ipc == pytest.approx(6.4)

    def test_fetch_ipc_no_cycles(self):
        assert make().fetch_ipc == 0.0

    def test_mispred_rate(self):
        r = make(branches=200, mispredictions=5)
        assert r.branch_misprediction_rate == pytest.approx(0.025)

    def test_mispred_rate_no_branches(self):
        assert make().branch_misprediction_rate == 0.0

    def test_cond_mispred_rate(self):
        r = make(cond_branches=100, cond_mispredictions=3)
        assert r.cond_misprediction_rate == pytest.approx(0.03)

    def test_wrong_path_fraction(self):
        r = make(fetched_instructions=1000, wrong_path_instructions=100,
                 fetch_cycles=10)
        assert r.wrong_path_fraction == pytest.approx(100 / 1100)

    def test_summary_mentions_key_fields(self):
        text = make().summary()
        assert "stream" in text
        assert "8-wide" in text
        assert "IPC" in text
