"""The one client of the serve protocol.

:class:`ServeClient` is the only handle on a ``repro.serve`` daemon: it
speaks the experiment ops (``ping``, ``status``, ``metrics``,
``drain``, ``matrix``) and the federated-store ops
(:meth:`~ServeClient.hello`, ``store_has``, ``store_get``,
``store_put``), one request per connection (the daemon is
connection-per-thread; short connections keep a slow client from
pinning a handler thread between requests).  Every failure surfaces as
one hierarchy rooted at :class:`ServeError`, so callers dispatch on
what they can do about it: :class:`~repro.cluster.pool.ClusterPool`
requeues a cell or strikes a node, and
:class:`~repro.store.remote.tiered.TieredStore` strikes,
quarantine-counts or drops a store peer.  Every ``store_get`` payload
is re-hashed here before it is trusted: the daemon verified its local
entry, but the network in between is exactly where bits flip.

:meth:`ServeClient.matrix` is the raw ``matrix`` op: one request, the
per-cell answers undecoded.  To run a sweep on a daemon, pass its
address to :func:`~repro.experiments.runner.run_matrix` as
``cluster=["host:port"]``: cells come back bit-identical to a local run
(the daemon ships the store's own result encoding), and the local store
and journal stay in the loop.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import errno
import hashlib
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.policy import FaultPolicy, backoff_delay
from repro.serve import protocol

__all__ = [
    "DEFAULT_MATRIX_TIMEOUT",
    "ServeClient",
    "ServeDraining",
    "ServeError",
    "ServeOverloaded",
    "ServeUnavailable",
    "StoreIntegrityError",
    "StorePeerUnusable",
    "StoreVersionSkew",
    "address_list",
    "parse_address",
]

#: Default read-timeout for matrix requests whose query carries no
#: deadline.  Without it ``timeout=None`` waits forever on a daemon
#: that accepted the connection and then hung — a cluster dispatch
#: must always come back with *something* so the pool can redispatch.
DEFAULT_MATRIX_TIMEOUT = 600.0

#: Connect-phase errnos worth retrying: a daemon that is restarting
#: (refused) or dropped the handshake (reset) is transiently gone, not
#: absent.  Anything else (EHOSTUNREACH, DNS failure, ...) fails fast.
_TRANSIENT_CONNECT_ERRNOS = frozenset({errno.ECONNREFUSED, errno.ECONNRESET})


class ServeError(Exception):
    """Any client-visible failure talking to a serve daemon: as itself,
    a response timeout, a bad frame, or a ``bad_request``, ``internal``
    or ``frame_too_large`` answer."""


class ServeUnavailable(ServeError):
    """No daemon reachable at the address (or it hung up mid-request)."""


class ServeOverloaded(ServeError):
    """The daemon refused admission; back off and retry (or run local)."""


class ServeDraining(ServeError):
    """The daemon is shutting down and no longer admits work."""


class StoreIntegrityError(ServeError):
    """Payload failed oid verification (either direction); quarantine,
    treat as a miss."""


class StorePeerUnusable(ServeError):
    """The daemon can never serve our store ops (``no_store``)."""


class StoreVersionSkew(StorePeerUnusable):
    """The daemon's store format / code generation differs from ours."""

    def __init__(self, message: str, peer_version: str = "") -> None:
        super().__init__(message)
        self.peer_version = peer_version


#: Wire error code -> exception class; any other code is a plain
#: :class:`ServeError`.  ``version_skew`` is raised apart: it carries
#: the peer's salt.
_ERROR_CLASSES = {
    protocol.ERROR_OVERLOADED: ServeOverloaded,
    protocol.ERROR_DRAINING: ServeDraining,
    protocol.ERROR_INTEGRITY: StoreIntegrityError,
    protocol.ERROR_NO_STORE: StorePeerUnusable,
}


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` or bare ``"port"`` -> ``(host, port)``.

    Raises :class:`ValueError` on anything else.
    """
    host, _, port = address.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(
            f"bad address {address!r} (want host:port)") from None


def address_list(text: str) -> str:
    """The argparse ``type=`` of a ``HOST:PORT[,...]`` flag.

    Returns ``text`` unchanged once every address in it parses, so a
    malformed one exits 2 with one line naming the flag and the
    address.
    """
    for address in text.split(","):
        if address.strip():
            try:
                parse_address(address.strip())
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
    return text


class ServeClient:
    """A daemon handle; methods open one connection per request.

    ``connect_timeout`` bounds each connection attempt and the wait
    for the control ops (``ping``, ``status``, ``metrics``, ``drain``);
    ``matrix_timeout`` the wait for a deadline-less matrix answer;
    ``request_timeout`` the wait for a store op.  ``version`` is the
    store salt sent with every store op (default:
    :func:`~repro.store.remote.version_salt`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 connect_timeout: float = 5.0,
                 connect_retries: int = 2,
                 connect_backoff: float = 0.2,
                 matrix_timeout: Optional[float] = DEFAULT_MATRIX_TIMEOUT,
                 request_timeout: Optional[float] = 30.0,
                 version: Optional[str] = None,
                 ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.matrix_timeout = matrix_timeout
        self.request_timeout = request_timeout
        self._version = version
        self._backoff_policy = FaultPolicy(
            timeout=None, retries=max(0, int(connect_retries)),
            backoff=connect_backoff, backoff_max=2.0,
        )
        #: The daemon's advertised frame limit, learned from
        #: :meth:`hello` (None until then): puts that cannot fit are
        #: refused here instead of bouncing off the daemon.
        self.max_frame: Optional[int] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def version(self) -> str:
        if self._version is None:
            from repro.store.remote import version_salt
            self._version = version_salt()
        return self._version

    @classmethod
    def at(cls, address: str, **kwargs: Any) -> "ServeClient":
        try:
            host, port = parse_address(address)
        except ValueError as exc:
            raise ServeError(str(exc)) from None
        return cls(host, port, **kwargs)

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        """Connect with bounded retries on transient refusals.

        ECONNREFUSED/ECONNRESET during the handshake get
        ``connect_retries`` more chances, spaced by the same
        deterministically-jittered exponential backoff the pools use
        (keyed on the address, so a fleet of clients does not retry in
        lockstep).  Everything else raises immediately.
        """
        policy = self._backoff_policy
        attempt = 0
        while True:
            try:
                return socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout)
            except OSError as exc:
                if (exc.errno not in _TRANSIENT_CONNECT_ERRNOS
                        or attempt == policy.retries):
                    raise ServeUnavailable(
                        f"no serve daemon at {self.address} ({exc})"
                    ) from None
            attempt += 1
            time.sleep(backoff_delay(policy, self.address, attempt))

    def request(self, message: Dict[str, Any],
                timeout: Optional[float] = None) -> Dict[str, Any]:
        """One request/response round trip; raises the typed errors.

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
                    raise ServeError(
                        f"bad response from {self.address}: {exc}"
                    ) from None
        except socket.timeout:
            raise ServeError(
                f"daemon at {self.address} did not answer within "
                f"{timeout}s"
            ) from None
        except OSError as exc:
            raise ServeUnavailable(
                f"connection to {self.address} failed ({exc})"
            ) from None
        finally:
            sock.close()
        if response is None:
            raise ServeUnavailable(
                f"daemon at {self.address} hung up mid-request")
        if response.get("ok"):
            return response
        code = response.get("error")
        text = f"{self.address}: {code}: {response.get('message', '')}"
        if code == protocol.ERROR_VERSION_SKEW:
            raise StoreVersionSkew(
                text, peer_version=str(response.get("version", "")))
        raise _ERROR_CLASSES.get(code, ServeError)(text)

    # ------------------------------------------------------------------
    # experiment ops
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

    # ------------------------------------------------------------------
    # store ops
    # ------------------------------------------------------------------
    def _store_request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        message["version"] = self.version
        return self.request(message, timeout=self.request_timeout)

    def hello(self) -> Dict[str, Any]:
        """Ping the daemon; learn its frame limit; check version skew.

        Raises :class:`StoreVersionSkew` if the daemon advertises a
        different salt — catching it at the handshake saves shipping a
        payload that would bounce anyway.
        """
        response = self.request({"op": "ping"}, timeout=self.request_timeout)
        limit = response.get("max_frame")
        if isinstance(limit, int) and limit > 0:
            self.max_frame = limit
        theirs = response.get("store_version")
        if isinstance(theirs, str) and theirs and theirs != self.version:
            raise StoreVersionSkew(
                f"{self.address}: version {theirs!r} != {self.version!r}",
                peer_version=theirs,
            )
        return response

    def store_has(self, kind: str, fps: Optional[List[str]]
                  ) -> Dict[str, str]:
        """Batched probe: present fingerprints -> oids.

        ``fps=None`` lists the daemon's entire index for ``kind``.
        """
        response = self._store_request({
            "op": "store_has", "kind": kind,
            "fps": list(fps) if fps is not None else None,
        })
        oids = response.get("oids")
        if not isinstance(oids, dict):
            raise ServeError(
                f"{self.address}: store_has answered without oids")
        return oids

    def store_get(self, kind: str, fp: str
                  ) -> Optional[Tuple[str, bytes, Dict[str, Any]]]:
        """Fetch one artifact as ``(oid, data, meta)``; None on a miss.

        The payload is re-hashed here: a flipped bit anywhere between
        the daemon's disk and ours raises :class:`StoreIntegrityError`,
        never returns wrong bytes.
        """
        response = self._store_request(
            {"op": "store_get", "kind": kind, "fp": fp})
        if not response.get("found"):
            return None
        oid = response.get("oid")
        payload = response.get("data")
        if not isinstance(oid, str) or not isinstance(payload, str):
            raise ServeError(
                f"{self.address}: malformed store_get response")
        try:
            data = base64.b64decode(payload.encode("ascii"), validate=True)
        except (ValueError, binascii.Error) as exc:
            raise StoreIntegrityError(
                f"{self.address}: undecodable payload for "
                f"{kind}/{fp} ({exc})") from None
        actual = hashlib.sha256(data).hexdigest()
        if actual != oid:
            raise StoreIntegrityError(
                f"{self.address}: payload for {kind}/{fp} hashes to "
                f"{actual}, peer claimed {oid}")
        meta = response.get("meta")
        return oid, data, meta if isinstance(meta, dict) else {}

    def store_put(self, kind: str, fp: str, data: bytes,
                  meta: Optional[dict] = None) -> str:
        """Push one artifact; both ends verify the oid."""
        oid = hashlib.sha256(data).hexdigest()
        payload = base64.b64encode(data).decode("ascii")
        if self.max_frame is not None and len(payload) + 512 > self.max_frame:
            raise ServeError(
                f"{self.address}: {kind}/{fp} payload ({len(payload)}b "
                f"base64) exceeds peer frame limit {self.max_frame}")
        response = self._store_request({
            "op": "store_put", "kind": kind, "fp": fp, "oid": oid,
            "data": payload, "meta": meta or {},
        })
        stored = response.get("oid")
        if stored != oid:
            raise StoreIntegrityError(
                f"{self.address}: stored {kind}/{fp} as {stored}, "
                f"expected {oid}")
        return oid
