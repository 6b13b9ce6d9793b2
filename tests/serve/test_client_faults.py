"""The client's error hierarchy under injected socket failures.

Every way a request can go wrong maps to one typed exception and never
to a hang: every wire error code, refused connections (with a bounded,
deterministic retry budget), resets mid-frame, garbage frames,
oversized frames, silent daemons, and the ``net_*`` fault-injection
kinds that emulate all of the above — for the experiment ops and the
store ops alike.
"""

from __future__ import annotations

import errno
import io
import json
import socket
import time

import pytest
from helpers import free_port, serve_once

from repro.exec.faults import FaultSpec, active_plan
from repro.exec.policy import backoff_delay
from repro.serve import protocol
from repro.serve.client import (
    DEFAULT_MATRIX_TIMEOUT,
    ServeClient,
    ServeDraining,
    ServeError,
    ServeOverloaded,
    ServeRefused,
    ServeUnavailable,
    StoreIntegrityError,
    StorePeerUnusable,
    StoreVersionSkew,
)


# ----------------------------------------------------------------------
# one table: every failure -> one class, for a serve op and a store op
# ----------------------------------------------------------------------
#: The class each wire error code raises.  ``ServeRefused`` means the
#: daemon answered and refused this one request.
CODE_CLASSES = {
    protocol.ERROR_BAD_REQUEST: ServeRefused,
    protocol.ERROR_OVERLOADED: ServeOverloaded,
    protocol.ERROR_DRAINING: ServeDraining,
    protocol.ERROR_INTERNAL: ServeError,
    protocol.ERROR_FRAME_TOO_LARGE: ServeRefused,
    protocol.ERROR_INTEGRITY: StoreIntegrityError,
    protocol.ERROR_VERSION_SKEW: StoreVersionSkew,
    protocol.ERROR_NO_STORE: StorePeerUnusable,
}

#: The class each transport failure raises.
TRANSPORT_CLASSES = {
    "refused": ServeUnavailable,  # nothing listens
    "hangup": ServeUnavailable,   # FIN before any answer
    "reset": ServeUnavailable,    # half a frame, then RST
    "garbage": ServeError,        # a line that is not JSON
    "silent": ServeError,         # connected, never answered
}

OPS = {
    "ping": lambda client: client.ping(),
    "store_get": lambda client: client.store_get("result", "ab" * 32),
}


def _endpoint(failure):
    """A port where ``failure`` happens, and a socket to close after."""
    if failure in CODE_CLASSES:
        return serve_once(json.dumps({
            "ok": False, "error": failure, "message": "scripted",
            "version": "their-salt",
        }).encode() + b"\n"), None
    if failure == "refused":
        return free_port(), None
    if failure == "silent":  # the kernel completes the handshake
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        return listener.getsockname()[1], listener
    answer = {"hangup": b"", "reset": b'{"ok": tru',
              "garbage": b"\xfe\xed not json at all\xff\n"}[failure]
    return serve_once(answer, rst=failure == "reset"), None


def test_code_table_covers_every_protocol_code():
    codes = {value for name, value in vars(protocol).items()
             if name.startswith("ERROR_")}
    assert codes == set(CODE_CLASSES)


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("failure", [*CODE_CLASSES, *TRANSPORT_CLASSES])
def test_every_failure_maps_to_one_class(failure, op):
    port, listener = _endpoint(failure)
    client = ServeClient("127.0.0.1", port, connect_timeout=0.5,
                         connect_retries=0, request_timeout=0.5,
                         version="our-salt")
    try:
        with pytest.raises(ServeError) as err:
            OPS[op](client)
    finally:
        if listener is not None:
            listener.close()
    cls = {**CODE_CLASSES, **TRANSPORT_CLASSES}[failure]
    assert type(err.value) is cls
    if cls is StoreVersionSkew:
        assert err.value.peer_version == "their-salt"


def test_hello_records_the_frame_limit_then_checks_the_salt():
    port = serve_once(json.dumps({
        "ok": True, "max_frame": 4096, "store_version": "their-salt",
    }).encode() + b"\n")
    client = ServeClient("127.0.0.1", port, connect_retries=0,
                         version="our-salt")
    with pytest.raises(StoreVersionSkew) as err:
        client.hello()
    assert err.value.peer_version == "their-salt"
    assert client.max_frame == 4096


# ----------------------------------------------------------------------
# connect-phase failures
# ----------------------------------------------------------------------
def test_refused_is_unavailable_without_retries():
    client = ServeClient("127.0.0.1", free_port(), connect_retries=0)
    with pytest.raises(ServeUnavailable, match="no serve daemon"):
        client.ping()


def test_transient_refusals_retry_with_deterministic_backoff(monkeypatch):
    attempts = []
    delays = []

    def refuse(address, timeout=None):
        attempts.append(address)
        raise ConnectionRefusedError(errno.ECONNREFUSED, "refused")

    monkeypatch.setattr(socket, "create_connection", refuse)
    monkeypatch.setattr(time, "sleep", delays.append)
    client = ServeClient("127.0.0.1", 1234, connect_retries=2,
                         connect_backoff=0.2)
    with pytest.raises(ServeUnavailable):
        client.ping()
    assert len(attempts) == 3  # initial + 2 retries
    # The same sha256-derived jittered schedule the pools use, keyed
    # on the address: a fleet of clients never retries in lockstep.
    expected = [backoff_delay(client._backoff_policy, client.address, n)
                for n in (1, 2)]
    assert delays == expected
    assert all(d > 0 for d in delays)


def test_non_transient_connect_errors_fail_fast(monkeypatch):
    attempts = []

    def unreachable(address, timeout=None):
        attempts.append(address)
        raise OSError(errno.EHOSTUNREACH, "no route to host")

    monkeypatch.setattr(socket, "create_connection", unreachable)
    client = ServeClient("127.0.0.1", 1234, connect_retries=5)
    with pytest.raises(ServeUnavailable, match="no route"):
        client.ping()
    assert len(attempts) == 1  # no retry budget burned on a dead route


# ----------------------------------------------------------------------
# response-phase failures (real sockets, one-shot servers)
# ----------------------------------------------------------------------
def test_hangup_before_response_is_unavailable():
    port = serve_once(b"")
    client = ServeClient("127.0.0.1", port, connect_retries=0)
    with pytest.raises(ServeUnavailable, match="hung up"):
        client.request({"op": "ping"}, timeout=10)


def test_reset_mid_frame_is_unavailable():
    # Half a frame, then an RST: readline blocks on the missing
    # newline until the reset surfaces as a typed error, not a hang.
    port = serve_once(b'{"ok": tru', rst=True)
    client = ServeClient("127.0.0.1", port, connect_retries=0)
    with pytest.raises(ServeUnavailable, match="failed"):
        client.request({"op": "ping"}, timeout=10)


def test_truncated_frame_is_typed_error():
    # Half a frame then a clean FIN: an undecodable line, not a hang.
    port = serve_once(b'{"ok": tru')
    client = ServeClient("127.0.0.1", port, connect_retries=0)
    with pytest.raises(ServeError, match="bad response"):
        client.request({"op": "ping"}, timeout=10)


def test_garbage_frame_is_typed_error():
    port = serve_once(b"\xfe\xed not json at all\xff\n")
    client = ServeClient("127.0.0.1", port, connect_retries=0)
    with pytest.raises(ServeError, match="bad response"):
        client.request({"op": "ping"}, timeout=10)


def test_oversized_frame_is_typed_error(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
    payload = b'{"ok": true, "pad": "' + b"x" * 200 + b'"}\n'
    port = serve_once(payload)
    client = ServeClient("127.0.0.1", port, connect_retries=0)
    with pytest.raises(ServeError, match="bad response"):
        client.request({"op": "ping"}, timeout=10)


# ----------------------------------------------------------------------
# injected net_* faults drive the same taxonomy
# ----------------------------------------------------------------------
def test_net_refuse_fault_maps_to_unavailable():
    port = serve_once(b'{"ok": true}\n')
    client = ServeClient("127.0.0.1", port, connect_retries=0)
    with active_plan(FaultSpec("net_refuse", match=client.address,
                               times=1)):
        with pytest.raises(ServeUnavailable):
            client.request({"op": "ping"}, timeout=10)


def test_net_drop_fault_writes_half_then_resets():
    stream = io.BytesIO()
    with active_plan(FaultSpec("net_drop", times=1)):
        with pytest.raises(ConnectionResetError):
            protocol.write_message(stream, {"op": "ping"}, target="x:1")
    full = b'{"op":"ping"}\n'
    assert stream.getvalue() == full[:len(full) // 2]


def test_net_garbage_fault_consumes_the_write():
    stream = io.BytesIO()
    with active_plan(FaultSpec("net_garbage", times=1)):
        protocol.write_message(stream, {"op": "ping"}, target="x:1")
    garbage = stream.getvalue()
    assert garbage.endswith(b"\n") and b"ping" not in garbage
    with pytest.raises(protocol.ProtocolError):
        protocol.read_message(io.BytesIO(garbage))


def test_net_delay_fault_sleeps_then_delivers():
    stream = io.BytesIO()
    with active_plan(FaultSpec("net_delay", times=1, seconds=0.05)):
        started = time.monotonic()
        protocol.write_message(stream, {"op": "ping"}, target="x:1")
        elapsed = time.monotonic() - started
    assert elapsed >= 0.05
    assert protocol.read_message(io.BytesIO(stream.getvalue())) == \
        {"op": "ping"}


def test_net_fault_match_routes_by_address():
    # A plan scoped to one node's address leaves other targets alone.
    stream = io.BytesIO()
    with active_plan(FaultSpec("net_refuse", match="10.0.0.9:4242",
                               times=8)):
        protocol.write_message(stream, {"op": "ping"},
                               target="127.0.0.1:1111")
        with pytest.raises(ConnectionRefusedError):
            protocol.write_message(stream, {"op": "ping"},
                                   target="10.0.0.9:4242")
    assert protocol.read_message(io.BytesIO(stream.getvalue())) == \
        {"op": "ping"}


# ----------------------------------------------------------------------
# frame caps: parameterized, negotiated, typed
# ----------------------------------------------------------------------
def test_read_message_honors_explicit_max_bytes():
    big = b'{"op": "ping", "pad": "' + b"x" * 256 + b'"}\n'
    with pytest.raises(protocol.FrameTooLarge, match="exceeds 64"):
        protocol.read_message(io.BytesIO(big), max_bytes=64)
    # The same frame is fine under the (much larger) default cap.
    assert protocol.read_message(io.BytesIO(big))["op"] == "ping"


def test_frame_too_large_is_a_protocol_error():
    # Callers that only catch ProtocolError keep working.
    assert issubclass(protocol.FrameTooLarge, protocol.ProtocolError)


def test_daemon_frame_cap_is_negotiated_and_typed():
    from repro.serve.server import ExperimentServer

    with ExperimentServer(max_frame_bytes=512) as server:
        host, port = server.address
        # Negotiated: ping advertises the daemon's cap.
        client = ServeClient(host, port)
        assert client.ping()["max_frame"] == 512
        # An oversized request bounces with the typed error carrying
        # the limit — not a hang, not a cut connection.  (The frame
        # stays under the handler's 8K read buffer so the daemon can
        # drain it before closing.)
        with socket.create_connection((host, port), timeout=10) as sock:
            with sock.makefile("rwb") as stream:
                stream.write(b'{"op": "ping", "pad": "' +
                             b"x" * 2048 + b'"}\n')
                stream.flush()
                response = protocol.read_message(stream)
        assert response["ok"] is False
        assert response["error"] == protocol.ERROR_FRAME_TOO_LARGE
        assert response["limit"] == 512


# ----------------------------------------------------------------------
# deadline-less requests stay bounded
# ----------------------------------------------------------------------
def test_matrix_requests_have_a_bounded_default_timeout():
    captured = []

    class Spy(ServeClient):
        def request(self, message, timeout=None):
            captured.append(timeout)
            return {"ok": True, "cells": []}

    query = protocol.MatrixQuery(
        benchmarks=("gzip",), widths=(8,), archs=("stream",),
        layouts=(True,), instructions=1000, warmup=100, scale=0.3,
    )
    spy = Spy()
    spy.matrix(query)
    assert captured == [DEFAULT_MATRIX_TIMEOUT]
    spy.matrix(protocol.MatrixQuery(
        benchmarks=("gzip",), widths=(8,), archs=("stream",),
        layouts=(True,), instructions=1000, warmup=100, scale=0.3,
        deadline=5.0,
    ))
    assert captured[1] == pytest.approx(35.0)  # deadline + slack
