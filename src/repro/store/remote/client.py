"""Client side of the federated-store wire ops.

:class:`RemoteStoreClient` is one peer handle: it dials a
``repro.serve`` daemon with the shared transport-retry helper
(:func:`repro.common.net.connect_with_retries`) and speaks the
``store_*`` ops, surfacing a small typed taxonomy the tier dispatches
on:

* :class:`RemoteStoreError` — **transport**: refused, reset, timed
  out, garbage frames, daemon-side internal errors.  The peer may be
  back in a moment; the tier records a health strike and tries the
  next peer.
* :class:`StoreIntegrityError` — **integrity**: bytes arrived but
  failed oid verification (either direction).  Never served, never
  retried against the same answer; the tier quarantine-counts it and
  treats the probe as a miss.
* :class:`StorePeerUnusable` — the peer can *never* serve us
  (``no_store``); warn once and stop asking.
* :class:`StoreVersionSkew` — unusable because the peer runs a
  different store-format/code generation; carries the peer's salt.

Every ``get`` payload is re-hashed client-side before it is trusted —
the server already verified its local entry, but the network between
is exactly where bits flip.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import socket
from typing import Any, Dict, List, Optional, Tuple

from repro.common.net import connect_with_retries, parse_hostport
from repro.exec.policy import FaultPolicy
from repro.serve import protocol

__all__ = [
    "RemoteStoreClient",
    "RemoteStoreError",
    "StoreIntegrityError",
    "StorePeerUnusable",
    "StoreVersionSkew",
]


class RemoteStoreError(Exception):
    """Transport-class failure: the peer may recover; try the next."""


class StoreIntegrityError(RemoteStoreError):
    """Payload failed oid verification; quarantine, treat as a miss."""


class StorePeerUnusable(RemoteStoreError):
    """The peer can never serve us (e.g. it runs without a store)."""


class StoreVersionSkew(StorePeerUnusable):
    """The peer's store format / code generation differs from ours."""

    def __init__(self, message: str, peer_version: str = "") -> None:
        super().__init__(message)
        self.peer_version = peer_version


class RemoteStoreClient:
    """One peer handle; methods open one connection per request."""

    def __init__(
        self,
        address: str,
        connect_timeout: float = 5.0,
        connect_retries: int = 1,
        connect_backoff: float = 0.2,
        request_timeout: Optional[float] = 30.0,
        version: Optional[str] = None,
    ) -> None:
        try:
            self.host, self.port = parse_hostport(address)
        except ValueError as exc:
            raise RemoteStoreError(str(exc)) from None
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self._backoff_policy = FaultPolicy(
            timeout=None, retries=max(0, int(connect_retries)),
            backoff=connect_backoff, backoff_max=2.0,
        )
        if version is None:
            from repro.store.remote import version_salt
            version = version_salt()
        self.version = version
        #: The peer's advertised frame limit, learned from :meth:`hello`
        #: (None until then): puts that cannot fit are refused
        #: client-side instead of bouncing off the daemon.
        self.max_frame: Optional[int] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One round trip; raises the typed taxonomy above."""
        try:
            sock = connect_with_retries(
                self.host, self.port, timeout=self.connect_timeout,
                policy=self._backoff_policy, key=self.address,
            )
        except OSError as exc:
            raise RemoteStoreError(
                f"no store peer at {self.address} ({exc})") from None
        try:
            sock.settimeout(self.request_timeout)
            with sock.makefile("rwb") as stream:
                protocol.write_message(stream, message, target=self.address)
                try:
                    response = protocol.read_message(
                        stream, target=self.address)
                except protocol.ProtocolError as exc:
                    raise RemoteStoreError(
                        f"bad frame from {self.address}: {exc}") from None
        except socket.timeout:
            raise RemoteStoreError(
                f"peer {self.address} did not answer within "
                f"{self.request_timeout}s") from None
        except OSError as exc:
            raise RemoteStoreError(
                f"connection to {self.address} failed ({exc})") from None
        finally:
            sock.close()
        if response is None:
            raise RemoteStoreError(
                f"peer {self.address} hung up mid-request")
        if response.get("ok"):
            return response
        code = response.get("error")
        text = response.get("message", "")
        if code == protocol.ERROR_INTEGRITY:
            raise StoreIntegrityError(f"{self.address}: {text}")
        if code == protocol.ERROR_VERSION_SKEW:
            raise StoreVersionSkew(
                f"{self.address}: {text}",
                peer_version=str(response.get("version", "")),
            )
        if code == protocol.ERROR_NO_STORE:
            raise StorePeerUnusable(f"{self.address}: {text}")
        raise RemoteStoreError(f"{self.address}: {code}: {text}")

    # ------------------------------------------------------------------
    def hello(self) -> Dict[str, Any]:
        """Ping the peer; learn its frame limit; check version skew.

        Raises :class:`StoreVersionSkew` if the peer advertises a
        different salt — catching it at the handshake saves shipping a
        payload that would bounce anyway.
        """
        response = self.request({"op": "ping"})
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

    def has(self, kind: str, fps: Optional[List[str]]) -> Dict[str, str]:
        """Batched probe: present fingerprints -> oids.

        ``fps=None`` lists the peer's entire index for ``kind``.
        """
        response = self.request({
            "op": "store_has", "version": self.version,
            "kind": kind, "fps": list(fps) if fps is not None else None,
        })
        oids = response.get("oids")
        if not isinstance(oids, dict):
            raise RemoteStoreError(
                f"{self.address}: store_has answered without oids")
        return oids

    def get(self, kind: str, fp: str
            ) -> Optional[Tuple[str, bytes, Dict[str, Any]]]:
        """Fetch one artifact as ``(oid, data, meta)``; None on a miss.

        The payload is re-hashed here: a flipped bit anywhere between
        the peer's disk and ours raises :class:`StoreIntegrityError`,
        never returns wrong bytes.
        """
        response = self.request({
            "op": "store_get", "version": self.version,
            "kind": kind, "fp": fp,
        })
        if not response.get("found"):
            return None
        oid = response.get("oid")
        payload = response.get("data")
        if not isinstance(oid, str) or not isinstance(payload, str):
            raise RemoteStoreError(
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

    def put(self, kind: str, fp: str, data: bytes,
            meta: Optional[dict] = None) -> str:
        """Push one artifact; both ends verify the oid."""
        oid = hashlib.sha256(data).hexdigest()
        payload = base64.b64encode(data).decode("ascii")
        if self.max_frame is not None and len(payload) + 512 > self.max_frame:
            raise RemoteStoreError(
                f"{self.address}: {kind}/{fp} payload ({len(payload)}b "
                f"base64) exceeds peer frame limit {self.max_frame}")
        response = self.request({
            "op": "store_put", "version": self.version,
            "kind": kind, "fp": fp, "oid": oid, "data": payload,
            "meta": meta or {},
        })
        stored = response.get("oid")
        if stored != oid:
            raise StoreIntegrityError(
                f"{self.address}: stored {kind}/{fp} as {stored}, "
                f"expected {oid}")
        return oid
