"""`repro.store.remote` — the federated artifact store.

Any ``repro.serve`` daemon with a store already holds every artifact
its sweeps produced; this package lets *other* nodes read through to
it (and replicate back into it) over the same LDJSON wire format the
daemon speaks, so a fleet simulates each cold cell exactly once.

Three wire ops (served by the daemon, :mod:`.ops`):

``store_has``
    Batched existence probe: fingerprints -> oids.  ``fps: null``
    lists the peer's whole index for a kind (the anti-entropy pass
    builds its diff from this).
``store_get``
    One artifact: payload bytes base64-encoded in the store's own
    canonical encoding, plus the oid they must hash to.
``store_put``
    One artifact pushed at a peer; the server re-hashes the decoded
    bytes and refuses with a typed ``integrity`` error on mismatch.

The client side is the daemon's one client,
:class:`~repro.serve.client.ServeClient`, which speaks these ops and
raises the federation's typed errors
(:class:`~repro.serve.client.StoreIntegrityError`,
:class:`~repro.serve.client.StorePeerUnusable`,
:class:`~repro.serve.client.StoreVersionSkew`).  The tier
(:class:`.TieredStore`, :mod:`.tiered`) holds one client per peer and
layers the local :class:`~repro.store.store.ArtifactStore` under
them: local reads are tried first, misses fan out across peers
guarded by the same circuit-breaker state machine the cluster pool
uses (:class:`repro.cluster.health.NodeHealth`), every remote payload
is re-hashed before it is trusted, verified fills land through the
store's atomic-put path, and each local put stays pending for every
peer until a background pusher, running ``cache sync``'s push routine
(:mod:`.sync`), has delivered it.  The degradation ladder ends in
warn-once local-only operation — with every peer dead, lying, or
slow, a sweep still produces bit-identical results.

Version skew is detected, not suffered: every store op carries the
``FORMAT_VERSION:code_version`` salt (:func:`version_salt`), so a
peer running different code answers ``version_skew`` and is ignored
after one warning instead of mixing incompatible artifacts.

The fault drills in ``tests/store/test_remote_drills.py`` cover the
failure matrix (peer SIGKILL mid-get, garbage payloads,
partition-then-heal, skewed versions, all-peers-down, a peer dead at
put time, fleet read-through) and assert bit-identical results
against a local-only baseline.
"""

from __future__ import annotations

from typing import List

from repro.store.fingerprint import FORMAT_VERSION, code_version

__all__ = [
    "PEERS_ENV",
    "parse_peers",
    "version_salt",
    "TieredStore",
    "sync_with_peers",
]

#: Environment knob: comma-separated ``host:port`` peers, consulted by
#: the CLIs (``repro-experiments --store-peers``, ``python -m
#: repro.serve --store-peers``); library entry points take peers
#: explicitly.
PEERS_ENV = "REPRO_STORE_PEERS"


def version_salt() -> str:
    """The handshake salt: store format generation + code version.

    Two nodes agree on this string exactly when their artifacts are
    interchangeable — same payload format *and* same simulator
    code, the pair :func:`repro.store.fingerprint.fingerprint` already
    folds into every fingerprint.
    """
    return f"{FORMAT_VERSION}:{code_version()}"


def parse_peers(peers: object) -> List[str]:
    """Normalize a peers spec into a list of ``host:port`` strings.

    Accepts a comma-separated string (CLI / ``$REPRO_STORE_PEERS``), a
    sequence of strings, or None/empty for no peers.  Addresses are
    validated (and bare ports expanded to ``127.0.0.1:port``); order
    is preserved, duplicates dropped; a malformed address raises
    :class:`ValueError`.
    """
    from repro.serve.client import parse_address

    if peers is None:
        return []
    if isinstance(peers, str):
        raw = [p.strip() for p in peers.split(",")]
    else:
        raw = [str(p).strip() for p in peers]
    out: List[str] = []
    for item in raw:
        if not item:
            continue
        host, port = parse_address(item)
        address = f"{host}:{port}"
        if address not in out:
            out.append(address)
    return out


def __getattr__(name: str):  # pragma: no cover - thin lazy re-exports
    # The tier and sync pull in repro.cluster (health) and repro.serve
    # (the client); importing them here eagerly would cycle with
    # serve.server's lazy handshake import of this package.
    if name == "TieredStore":
        from repro.store.remote.tiered import TieredStore
        return TieredStore
    if name == "sync_with_peers":
        from repro.store.remote.sync import sync_with_peers
        return sync_with_peers
    raise AttributeError(name)
