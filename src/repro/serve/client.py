"""Client side of the serve protocol.

:class:`ServeClient` speaks one request per connection (the daemon is
connection-per-thread; short connections keep a slow client from
pinning a handler thread between requests) and surfaces the protocol's
typed errors as typed exceptions, so callers can distinguish "back off"
(:class:`ServeOverloaded`), "daemon going away" (:class:`ServeDraining`)
and "no daemon there at all" (:class:`ServeUnavailable`) — the
distinction :class:`~repro.cluster.pool.ClusterPool` uses to requeue a
cell or strike a node.

:meth:`ServeClient.matrix` is the raw ``matrix`` op: one request, the
per-cell answers undecoded.  To run a sweep on a daemon, pass its
address to :func:`~repro.experiments.runner.run_matrix` as
``cluster=["host:port"]``: cells come back bit-identical to a local run
(the daemon ships the store's own result encoding), and the local store
and journal stay in the loop.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional, Tuple

from repro.common.net import connect_with_retries, parse_hostport
from repro.exec.policy import FaultPolicy
from repro.serve import protocol

__all__ = [
    "DEFAULT_MATRIX_TIMEOUT",
    "ServeClient",
    "ServeDraining",
    "ServeError",
    "ServeOverloaded",
    "ServeUnavailable",
    "parse_address",
]

#: Default read-timeout for matrix requests whose query carries no
#: deadline.  Without it ``timeout=None`` waits forever on a daemon
#: that accepted the connection and then hung — a cluster dispatch
#: must always come back with *something* so the pool can redispatch.
DEFAULT_MATRIX_TIMEOUT = 600.0


class ServeError(Exception):
    """Any client-visible failure talking to a serve daemon."""


class ServeUnavailable(ServeError):
    """No daemon reachable at the address (or it hung up mid-request)."""


class ServeOverloaded(ServeError):
    """The daemon refused admission; back off and retry (or run local)."""


class ServeDraining(ServeError):
    """The daemon is shutting down and no longer admits work."""


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` or bare ``"port"`` -> ``(host, port)``."""
    try:
        return parse_hostport(address)
    except ValueError:
        raise ServeError(f"bad serve address {address!r} "
                         f"(want host:port)") from None


class ServeClient:
    """A daemon handle; methods open one connection per request."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 connect_timeout: float = 5.0,
                 connect_retries: int = 2,
                 connect_backoff: float = 0.2,
                 matrix_timeout: Optional[float] = DEFAULT_MATRIX_TIMEOUT,
                 ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.connect_retries = max(0, int(connect_retries))
        self.connect_backoff = connect_backoff
        self.matrix_timeout = matrix_timeout
        self._backoff_policy = FaultPolicy(
            timeout=None, retries=self.connect_retries,
            backoff=connect_backoff, backoff_max=2.0,
        )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @classmethod
    def at(cls, address: str, **kwargs: Any) -> "ServeClient":
        host, port = parse_address(address)
        return cls(host, port, **kwargs)

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        """Connect with bounded retries on transient refusals.

        ECONNREFUSED/ECONNRESET during the handshake get
        ``connect_retries`` more chances, spaced by the same
        deterministically-jittered exponential backoff the pools use
        (keyed on the address, so a fleet of clients does not retry in
        lockstep).  Everything else raises immediately.  The loop
        itself lives in :func:`repro.common.net.connect_with_retries`,
        shared with the remote-store client.
        """
        try:
            return connect_with_retries(
                self.host, self.port, timeout=self.connect_timeout,
                policy=self._backoff_policy, key=self.address,
            )
        except OSError as exc:
            raise ServeUnavailable(
                f"no serve daemon at {self.address} ({exc})"
            ) from None

    def request(self, message: Dict[str, Any],
                timeout: Optional[float] = None) -> Dict[str, Any]:
        """One request/response round trip; raises typed errors.

        ``timeout`` bounds the wait for the *response* (connection
        establishment has its own ``connect_timeout`` and retry
        budget); None waits indefinitely — matrix requests bound
        themselves via :attr:`matrix_timeout` or the protocol-level
        ``deadline`` instead, so the daemon answers with partial
        results rather than the socket going dark.
        """
        sock = self._connect()
        try:
            sock.settimeout(timeout)
            with sock.makefile("rwb") as stream:
                protocol.write_message(stream, message, target=self.address)
                try:
                    response = protocol.read_message(
                        stream, target=self.address)
                except protocol.ProtocolError as exc:
                    raise ServeError(f"bad response: {exc}") from None
        except socket.timeout:
            raise ServeError(
                f"daemon at {self.host}:{self.port} did not answer "
                f"within {timeout}s"
            ) from None
        except OSError as exc:
            raise ServeUnavailable(
                f"connection to {self.host}:{self.port} failed ({exc})"
            ) from None
        finally:
            sock.close()
        if response is None:
            raise ServeUnavailable(
                f"daemon at {self.host}:{self.port} hung up mid-request"
            )
        if response.get("ok"):
            return response
        code = response.get("error")
        message_text = response.get("message", "")
        if code == protocol.ERROR_OVERLOADED:
            raise ServeOverloaded(message_text)
        if code == protocol.ERROR_DRAINING:
            raise ServeDraining(message_text)
        raise ServeError(f"{code}: {message_text}")

    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"}, timeout=self.connect_timeout)

    def status(self) -> Dict[str, Any]:
        return self.request({"op": "status"}, timeout=self.connect_timeout)

    def metrics(self) -> str:
        """The daemon's metrics in Prometheus text exposition format."""
        response = self.request({"op": "metrics"},
                                timeout=self.connect_timeout)
        return response.get("text", "")

    def drain(self) -> Dict[str, Any]:
        return self.request({"op": "drain"}, timeout=self.connect_timeout)

    def matrix(self, query: protocol.MatrixQuery) -> Dict[str, Any]:
        """The raw matrix response (``cells`` undecoded)."""
        # A deadline-carrying query bounds the socket wait with a bit
        # of slack for transfer time; a deadline-less one falls back to
        # the client-level matrix_timeout (which may be None for the
        # old unbounded behavior, but defaults bounded).
        if query.deadline is not None:
            timeout: Optional[float] = query.deadline + 30.0
        else:
            timeout = self.matrix_timeout
        return self.request(query.to_wire(), timeout=timeout)
