"""Tier-1 pins simulated results to the benchmark's golden hashes.

``perfbench/golden.json`` holds one SHA-256 per cell of each perfbench
workload, and a benchmark run fails any cell that differs.  This test
runs the cells of the steady_sim and fleet_replay workloads
(``STEADY_CALLS`` and ``FLEET_CALLS`` in ``perfbench/workloads.py``)
through ``run_matrix`` in both engine modes and compares the same
per-cell hashes, so a change that moves a simulated result fails here
too.  It reads those files and writes none.
"""

from __future__ import annotations

import os
import sys

import pytest

PERFBENCH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "perfbench"))

WORKLOADS = {"steady_sim": "STEADY_CALLS", "fleet_replay": "FLEET_CALLS"}


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``harness`` and ``workloads`` modules."""
    sys.path.insert(0, PERFBENCH)
    try:
        import harness
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return harness, workloads


@pytest.mark.parametrize("mode", ["accel", "interp"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cells_match_golden(perfbench, workload, mode):
    harness, workloads = perfbench
    calls = getattr(workloads, WORKLOADS[workload])
    golden = harness.load_golden(workload)["cells"]
    result = harness.run_pass(calls, engine_mode=mode)
    assert result["failed"] == []
    assert harness.result_hashes(result["results"]) == golden
