"""Serve-layer observability: the metrics op, status extensions, and
the daemon's own flight recorder — all against an in-process server."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.experiments.runner import run_matrix
from repro.serve import ExperimentServer, ServeClient

KW = dict(benchmarks=("gzip",), widths=(8,), archs=("stream",),
          layouts=(True,), instructions=3000, warmup=1000, scale=0.3)


@pytest.fixture
def served(tmp_path):
    with ExperimentServer(store_root=str(tmp_path / "store"),
                          max_workers=1, use_fork_pool=False) as server:
        yield server, ServeClient(*server.address)


def test_metrics_op_serves_prometheus_text(served):
    server, client = served
    # The registry is process-global; zero it so the assertions below
    # see exactly this test's traffic regardless of suite order.
    obs.reset_metrics()
    base = run_matrix(**KW)
    got = run_matrix(cluster=[client.address], **KW)
    assert got.results == base.results

    text = client.metrics()
    # Serve-family counters with real samples from the request above.
    assert 'repro_serve_requests_total{op="matrix"} 1' in text
    assert 'repro_serve_cells_total{outcome="computed"} 1' in text
    assert "repro_serve_admissions_total 1" in text
    # Store and exec families are exposed from the same registry (the
    # acceptance bar: one scrape covers every layer).
    assert "# TYPE repro_store_misses_total counter" in text
    assert "# TYPE repro_exec_jobs_total counter" in text
    assert "# TYPE repro_serve_request_seconds histogram" in text
    assert "repro_serve_request_seconds_count 1" in text

    ping_then = client.ping()
    assert ping_then["ok"]
    text = client.metrics()
    assert 'repro_serve_requests_total{op="ping"} 1' in text


def test_status_reports_uptime_queue_and_in_flight(served):
    server, client = served
    obs.reset_metrics()
    run_matrix(cluster=[client.address], **KW)
    status = client.status()
    assert status["uptime"] > 0
    assert status["queue"]["backlog"] == 0
    assert status["cells"]["in_flight"] == 0
    assert status["cells"]["computed"] == 1


def test_daemon_keeps_its_own_flight_recorder(tmp_path):
    root = str(tmp_path / "store")
    with ExperimentServer(store_root=root, max_workers=1,
                          use_fork_pool=False) as server:
        client = ServeClient(*server.address)
        base = run_matrix(**KW)
        got = run_matrix(cluster=[client.address], **KW)
        assert got.results == base.results
    events = obs.read_events(os.path.join(root, "runs", "daemon.events"))
    kinds = {e["ev"] for e in events}
    assert "admit" in kinds
    assert "drained" in kinds
    (admit,) = [e for e in events if e["ev"] == "admit"]
    assert admit["cells"] == 1


def test_served_results_identical_with_obs_disabled(tmp_path, monkeypatch):
    base = run_matrix(**KW)
    monkeypatch.setenv(obs.OBS_ENV, "0")
    root = str(tmp_path / "store")
    with ExperimentServer(store_root=root, max_workers=1,
                          use_fork_pool=False) as server:
        client = ServeClient(*server.address)
        got = run_matrix(cluster=[client.address], **KW)
    assert got.results == base.results
    # Disabled: the daemon attached no recorder at all.
    assert not os.path.exists(os.path.join(root, "runs", "daemon.events"))
