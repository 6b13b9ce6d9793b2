"""Server side of the federated-store wire ops.

:func:`handle` maps one validated ``store_*`` request onto the
daemon's local :class:`~repro.store.store.ArtifactStore` and returns
the response dict; the serve front end (:mod:`repro.serve.server`)
calls it from its dispatch loop, so every behavior here is testable
without a socket.

Integrity is enforced where the bytes change hands: a ``store_put``
payload is re-hashed after base64 decoding and refused with a typed
``integrity`` error on any mismatch with the claimed oid, and a
``store_get`` never serves bytes the local store cannot re-verify
(a torn local entry answers ``found: false`` — a miss, never a lie).
A kind or fingerprint the store refuses (anything that is not a plain
name or a 64-digit hex digest, such as ``../x``) is a ``bad_request``.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
from typing import Any, Dict

from repro.serve.protocol import (
    ERROR_INTEGRITY,
    ERROR_NO_STORE,
    ERROR_VERSION_SKEW,
    ProtocolError,
    error_response,
)
from repro.store.remote import version_salt

__all__ = ["handle"]

STORE_OPS = ("store_has", "store_get", "store_put")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _local(store: Any) -> Any:
    # A daemon whose scheduler store is itself a TieredStore must
    # answer peers from its *local* layer only — serving read-through
    # fills to a peer that is also our peer would recurse forever.
    getter = getattr(store, "local_store", None)
    return getter() if callable(getter) else store


def handle(store: Any, message: Dict[str, Any]) -> Dict[str, Any]:
    """Serve one ``store_*`` request from ``store`` (may be None)."""
    op = message.get("op")
    if store is None:
        return error_response(
            ERROR_NO_STORE, f"{op}: this daemon runs without a store")
    salt = message.get("version")
    _require(isinstance(salt, str) and bool(salt),
             f"{op}: missing version salt")
    ours = version_salt()
    if salt != ours:
        return error_response(
            ERROR_VERSION_SKEW,
            f"{op}: peer version {salt!r} != {ours!r}",
            version=ours,
        )
    store = _local(store)
    kind = message.get("kind")
    _require(isinstance(kind, str) and bool(kind),
             f"{op}: kind must be a non-empty string")
    try:
        if op == "store_has":
            return _has(store, kind, message)
        if op == "store_get":
            return _get(store, kind, message)
        if op == "store_put":
            return _put(store, kind, message)
    except ValueError as exc:  # a kind or fp the store refuses
        raise ProtocolError(f"{op}: {exc}") from None
    raise ProtocolError(f"unknown store op: {op!r}")


def _has(store: Any, kind: str, message: Dict[str, Any]) -> Dict[str, Any]:
    fps = message.get("fps")
    oids: Dict[str, str] = {}
    if fps is None:
        # Full-index listing for this kind: the anti-entropy pass
        # diffs against this (and a pull needs no fourth op).
        for _kind, fp, entry in store.iter_index(kind):
            if entry is not None:
                oids[fp] = entry["oid"]
    else:
        _require(isinstance(fps, list)
                 and all(isinstance(fp, str) for fp in fps),
                 "store_has: fps must be a list of strings or null")
        for fp in fps:
            entry = store.get_entry(kind, fp)
            if entry is not None:
                oids[fp] = entry["oid"]
    return {"ok": True, "op": "store_has", "kind": kind, "oids": oids}


def _get(store: Any, kind: str, message: Dict[str, Any]) -> Dict[str, Any]:
    fp = message.get("fp")
    _require(isinstance(fp, str) and bool(fp),
             "store_get: fp must be a non-empty string")
    found = store.read(kind, fp)
    if found is None:  # missing or torn: a miss, never a lie
        return {"ok": True, "op": "store_get", "kind": kind, "fp": fp,
                "found": False}
    entry, data = found
    return {
        "ok": True, "op": "store_get", "kind": kind, "fp": fp,
        "found": True, "oid": entry["oid"], "size": len(data),
        "meta": entry["meta"],
        "data": base64.b64encode(data).decode("ascii"),
    }


def _put(store: Any, kind: str, message: Dict[str, Any]) -> Dict[str, Any]:
    fp = message.get("fp")
    _require(isinstance(fp, str) and bool(fp),
             "store_put: fp must be a non-empty string")
    oid = message.get("oid")
    _require(isinstance(oid, str) and bool(oid),
             "store_put: oid must be a non-empty string")
    payload = message.get("data")
    _require(isinstance(payload, str),
             "store_put: data must be a base64 string")
    meta = message.get("meta")
    _require(meta is None or isinstance(meta, dict),
             "store_put: meta must be an object or null")
    try:
        data = base64.b64decode(payload.encode("ascii"), validate=True)
    except (ValueError, binascii.Error) as exc:
        return error_response(
            ERROR_INTEGRITY, f"store_put: undecodable payload ({exc})")
    actual = hashlib.sha256(data).hexdigest()
    if actual != oid:
        return error_response(
            ERROR_INTEGRITY,
            f"store_put: payload hashes to {actual}, caller claimed {oid}",
        )
    stored = store.put(kind, fp, data, meta)
    return {"ok": True, "op": "store_put", "kind": kind, "fp": fp,
            "oid": stored}
