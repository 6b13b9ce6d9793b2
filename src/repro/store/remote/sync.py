"""Anti-entropy: reconcile a local store with remote peers.

``repro-experiments cache sync HOST:PORT[,...]`` calls
:func:`sync_with_peers`, which diffs index listings batch-wise and
transfers only what the other side lacks.  Every transferred artifact
is durably landed (atomic put, both directions oid-verified) before
the next one starts, so the pass is **resumable by construction**: a
SIGKILL mid-sync loses at most the artifact in flight, and the next
run's diff simply no longer contains what already made it across.

Existing entries are never overwritten — the sync fills holes, it
does not arbitrate between divergent stores (``cache verify --peers``
reports those instead).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.store.remote import parse_peers
from repro.store.remote.client import (
    RemoteStoreClient,
    RemoteStoreError,
    StoreIntegrityError,
    StorePeerUnusable,
)
from repro.store.store import ArtifactStore

__all__ = ["SYNC_KINDS", "sync_with_peers"]

#: The artifact kind the cache populates.  Sync also covers any other
#: kind found in the local index, such as entries an older checkout
#: wrote.
SYNC_KINDS = ("result",)


def _local_index(store: ArtifactStore) -> Dict[str, Dict[str, str]]:
    index: Dict[str, Dict[str, str]] = {}
    for kind, fp, entry in store.iter_index():
        if entry is not None:
            index.setdefault(kind, {})[fp] = entry["object"]
    return index


def sync_with_peers(
    store: ArtifactStore,
    peers: object,
    direction: str = "both",
    batch: int = 64,
    out: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Reconcile ``store`` with each peer; returns per-peer rows.

    ``direction`` is ``pull`` (fetch what the peer has and we lack),
    ``push`` (the reverse) or ``both``.  Each row reports ``pulled``,
    ``pushed``, ``errors`` (integrity-refused or transport-dropped
    transfers) and ``skipped`` (version skew / storeless / unreachable
    peers are skipped whole, with the reason).
    """
    if direction not in ("push", "pull", "both"):
        raise ValueError(f"bad direction {direction!r} "
                         f"(want push, pull or both)")
    emit = out or (lambda line: None)
    local = _local_index(store)
    kinds = sorted(set(SYNC_KINDS) | set(local))
    rows: List[Dict[str, Any]] = []
    for address in parse_peers(peers):
        row: Dict[str, Any] = {"peer": address, "pulled": 0, "pushed": 0,
                               "errors": 0, "skipped": None}
        rows.append(row)
        client = RemoteStoreClient(address)
        try:
            client.hello()
        except StorePeerUnusable as exc:  # includes version skew
            row["skipped"] = str(exc)
            emit(f"{address}: skipped ({exc})")
            continue
        except RemoteStoreError as exc:
            row["skipped"] = str(exc)
            emit(f"{address}: unreachable ({exc})")
            continue
        try:
            for kind in kinds:
                _sync_kind(store, client, kind, local.get(kind, {}),
                           direction, batch, row, emit)
        except RemoteStoreError as exc:
            # The peer went away mid-pass; everything already landed
            # stays landed, the next run picks up the difference.
            row["errors"] += 1
            emit(f"{address}: aborted mid-sync ({exc})")
        emit(f"{address}: pulled {row['pulled']}, pushed {row['pushed']}, "
             f"errors {row['errors']}")
    return rows


def _sync_kind(
    store: ArtifactStore,
    client: RemoteStoreClient,
    kind: str,
    local: Dict[str, str],
    direction: str,
    batch: int,
    row: Dict[str, Any],
    emit: Callable[[str], None],
) -> None:
    remote = client.has(kind, None)  # full listing: the diff base
    if direction in ("pull", "both"):
        for fp in sorted(set(remote) - set(local)):
            try:
                found = client.get(kind, fp)
            except StoreIntegrityError as exc:
                row["errors"] += 1
                emit(f"{client.address}: pull {kind}/{fp} refused ({exc})")
                continue
            if found is None:
                continue  # gc'd (or torn) since the listing; fine
            _oid, data, meta = found
            store.put(kind, fp, data, meta)
            row["pulled"] += 1
    if direction in ("push", "both"):
        want = sorted(set(local) - set(remote))
        for start in range(0, len(want), max(1, batch)):
            chunk = want[start:start + max(1, batch)]
            # Re-probe the batch right before pushing: another syncer
            # (or the peer's own sweeps) may have filled it meanwhile.
            present = client.has(kind, chunk)
            for fp in chunk:
                if fp in present:
                    continue
                entry = store.get_entry(kind, fp)
                data = (store._read_object(entry["object"])
                        if entry is not None else None)
                if data is None:
                    continue  # locally torn: never push unverifiable bytes
                try:
                    client.put(kind, fp, data, entry.get("meta") or {})
                except StoreIntegrityError as exc:
                    row["errors"] += 1
                    emit(f"{client.address}: push {kind}/{fp} "
                         f"refused ({exc})")
                    continue
                row["pushed"] += 1
