"""End-to-end daemon tests: real ``python -m repro.serve`` subprocesses
on ephemeral ports, driven through the public client.

The ``faults`` drills inject ``$REPRO_FAULTS`` plans into the daemon
and check that every response stays bit-identical to a local
``run_matrix``: coalescing, worker kills and hangs, store I/O errors,
SIGKILL + restart, and admission control.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest
from helpers import DRILL_MATRIX, daemon_sweep, result_digest

from repro.exec.faults import FaultSpec, encode_plan
from repro.experiments.runner import run_matrix
from repro.serve.client import ServeClient, ServeError, ServeOverloaded
from repro.serve.protocol import MatrixQuery
from repro.serve.server import ExperimentServer, _Handler

MATRIX = dict(benchmarks=("gzip",), widths=(8,), archs=("stream",),
              layouts=(True,), instructions=3000, warmup=1000, scale=0.3)


def _query(**overrides) -> MatrixQuery:
    return MatrixQuery(**dict(DRILL_MATRIX, **overrides))


def test_daemon_smoke_cold_warm_bitidentical_drain(tmp_path, fleet):
    """Boot, serve one cold + one warm query bit-identically, drain."""
    base = run_matrix(**MATRIX)
    daemon = fleet(str(tmp_path / "store"))
    ping = daemon.client.ping()
    assert ping["ok"] and ping["pid"] == daemon.proc.pid

    cold = run_matrix(cluster=[daemon.address], **MATRIX)
    assert cold.results == base.results
    assert [result_digest(r) for r in cold.results.values()] == \
        [result_digest(r) for r in base.results.values()]

    warm = run_matrix(cluster=[daemon.address], **MATRIX)
    assert warm.results == base.results

    status = daemon.client.status()
    assert status["cells"]["computed"] == 1  # the warm hit cost 0
    assert status["requests"] == 2
    assert status["store"]["hits"]["result"] >= 1
    assert status["queue"]["backlog"] == 0
    assert not status["draining"]

    assert daemon.drain_and_wait() == 0


def test_daemon_answers_bad_requests_typed(fleet):
    daemon = fleet(None)
    with pytest.raises(ServeError, match="bad_request"):
        daemon.client.request({"op": "matrix",
                               "benchmarks": ["nope"]})
    with pytest.raises(ServeError, match="bad_request"):
        daemon.client.request({"op": "frobnicate"})
    # Garbage framing gets a typed error too, then the daemon
    # still serves the next connection.
    with socket.create_connection(
        (daemon.client.host, daemon.client.port), timeout=10
    ) as sock:
        sock.sendall(b"this is not json\n")
        assert b"bad_request" in sock.makefile("rb").readline()
    assert daemon.client.ping()["ok"]
    assert daemon.drain_and_wait() == 0


def test_drain_reply_is_written_before_serve_forever_returns(monkeypatch):
    """An idle daemon drains at once; ``python -m repro.serve`` exits
    when ``serve_forever`` returns, taking unwritten replies with it."""
    events = []
    respond = _Handler._respond

    def slow_respond(self, response):
        if response.get("op") != "drain":
            return respond(self, response)
        time.sleep(0.5)
        written = respond(self, response)
        events.append("ack written")
        return written

    monkeypatch.setattr(_Handler, "_respond", slow_respond)
    server = ExperimentServer()

    def serve() -> None:
        server.serve_forever()
        events.append("serve_forever returned")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = server.address
    assert ServeClient(host, port).drain()["draining"]
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert events == ["ack written", "serve_forever returned"]


# ----------------------------------------------------------------------
# fault drills
# ----------------------------------------------------------------------
@pytest.mark.faults(timeout=120)
def test_concurrent_identical_requests_coalesce(
        tmp_path, fleet, drill_baseline):
    """N concurrent identical cold requests -> one simulation per cell."""
    daemon = fleet(str(tmp_path))
    n_cells = len(drill_baseline.results)
    n_clients = 4
    barrier = threading.Barrier(n_clients)
    outputs = [None] * n_clients

    def request(i: int) -> None:
        barrier.wait()
        outputs[i] = daemon_sweep(daemon)

    threads = [threading.Thread(target=request, args=(i,))
               for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    for out in outputs:
        assert out is not None, "a concurrent request never finished"
        assert out.results == drill_baseline.results
    cells = daemon.client.status()["cells"]
    assert cells["computed"] == n_cells, (
        f"expected exactly {n_cells} simulations for {n_clients} "
        f"concurrent identical requests, daemon ran {cells['computed']}"
    )
    assert cells["coalesced"] >= n_cells, \
        f"no coalescing happened: {cells}"
    # Warm re-request: served from the store, nothing recomputed.
    assert daemon_sweep(daemon).results == drill_baseline.results
    assert daemon.client.status()["cells"]["computed"] == n_cells
    assert daemon.drain_and_wait() == 0


@pytest.mark.faults(timeout=120)
def test_worker_sigkill_costs_a_retry_not_a_response(
        tmp_path, fleet, drill_baseline):
    plan = encode_plan(FaultSpec("kill", match="ev8", times=1))
    daemon = fleet(str(tmp_path), "--retries", "2", faults=plan)
    assert daemon_sweep(daemon).results == drill_baseline.results
    cells = daemon.client.status()["cells"]
    assert cells["failed"] == 0, cells
    assert daemon.drain_and_wait() == 0


@pytest.mark.faults(timeout=120)
def test_hung_worker_is_killed_at_the_deadline_and_retried(
        tmp_path, fleet, drill_baseline):
    plan = encode_plan(FaultSpec("hang", match="ev8", times=1, seconds=120))
    daemon = fleet(str(tmp_path), "--timeout", "2", "--retries", "2",
                   faults=plan)
    assert daemon_sweep(daemon).results == drill_baseline.results
    assert daemon.drain_and_wait() == 0


@pytest.mark.faults(timeout=120)
def test_store_errors_cost_caching_not_the_response(
        tmp_path, fleet, drill_baseline):
    plan = encode_plan(FaultSpec("store_err", match="result", times=2))
    daemon = fleet(str(tmp_path), faults=plan)
    assert daemon_sweep(daemon).results == drill_baseline.results
    assert daemon.drain_and_wait() == 0


@pytest.mark.faults(timeout=120)
def test_restart_after_sigkill_resimulates_only_the_lost_cell(
        tmp_path, fleet, drill_baseline):
    """A request deadline yields typed partial results, not a hang; a
    SIGKILL mid-sweep and a restart then re-simulate only the lost
    cell."""
    # Every attempt of the ev8 cell hangs and there is no attempt
    # timeout, so only the request deadline can end the wait.  (The
    # hang outlives the deadline by plenty but not forever, so a worker
    # orphaned by the SIGKILL exits on its own.)
    plan = encode_plan(FaultSpec("hang", match="ev8", times=10, seconds=60))
    daemon = fleet(str(tmp_path), faults=plan)
    response = daemon.client.matrix(_query(deadline=2.0))
    assert not response["complete"]
    by_arch = {cell["arch"]: cell for cell in response["cells"]}
    assert by_arch["stream"]["status"] == "ok", by_arch["stream"]
    assert by_arch["ev8"]["status"] == "deadline", by_arch["ev8"]
    daemon.kill()  # mid-sweep: ev8 still hanging

    # Fault-free restart over the same store: the finished cell must
    # come back from disk, only the lost one re-simulates.
    daemon = fleet(str(tmp_path))
    assert daemon_sweep(daemon).results == drill_baseline.results
    status = daemon.client.status()
    assert status["cells"]["computed"] == 1, (
        f"restart re-simulated {status['cells']['computed']} cell(s), "
        f"expected exactly the 1 lost to SIGKILL"
    )
    assert status["store"]["hits"]["result"] >= 1, status["store"]
    assert daemon.drain_and_wait() == 0


@pytest.mark.faults(timeout=120)
def test_zero_queue_limit_answers_overloaded(tmp_path, fleet):
    daemon = fleet(str(tmp_path), "--queue-limit", "0")
    with pytest.raises(ServeOverloaded):
        daemon.client.matrix(_query())
    # The daemon is refusing work, not broken: ping still answers and
    # drain still exits cleanly.
    assert daemon.client.ping()["ok"]
    assert daemon.drain_and_wait() == 0
