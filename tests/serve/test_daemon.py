"""End-to-end daemon smoke tests: a real ``python -m repro.serve``
subprocess on an ephemeral port, driven through the public client."""

from __future__ import annotations

import socket

import pytest
from helpers import result_digest

from repro.experiments.runner import run_matrix
from repro.serve.__main__ import _Daemon
from repro.serve.client import ServeError, ServeUnavailable

MATRIX = dict(benchmarks=("gzip",), widths=(8,), archs=("stream",),
              layouts=(True,), instructions=3000, warmup=1000, scale=0.3)


def test_daemon_smoke_cold_warm_bitidentical_drain(tmp_path):
    """Boot, serve one cold + one warm query bit-identically, drain."""
    base = run_matrix(**MATRIX)
    with _Daemon(str(tmp_path / "store")) as daemon:
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
        assert not status["draining"]

        assert daemon.drain_and_wait() == 0


def test_daemon_answers_bad_requests_typed(tmp_path):
    with _Daemon(None) as daemon:
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


def test_client_unavailable_is_typed():
    client_error = None
    # A port nothing listens on (bind-then-close reserves a dead one).
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    from repro.serve.client import ServeClient

    try:
        ServeClient("127.0.0.1", port).ping()
    except ServeUnavailable as exc:
        client_error = exc
    assert client_error is not None
