"""Anti-entropy: reconcile a local store with remote peers.

``repro-experiments cache sync HOST:PORT[,...]`` calls
:func:`sync_with_peers`, which diffs index listings batch-wise and
transfers only what the other side lacks.  Every transferred artifact
is durably landed (atomic put, both directions oid-verified) before
the next one starts, so the pass is **resumable by construction**: a
SIGKILL mid-sync loses at most the artifact in flight, and the next
run's diff simply no longer contains what already made it across.
Each peer is reached through one
:class:`~repro.serve.client.ServeClient`.

The push half, :func:`push_missing`, is also how a
:class:`~repro.store.remote.tiered.TieredStore` replicates its puts.

Existing entries are never overwritten — the sync fills holes, it
does not arbitrate between divergent stores (``cache verify --peers``
reports those instead).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.serve.client import (
    ServeClient,
    ServeError,
    ServeRefused,
    StoreIntegrityError,
    StorePeerUnusable,
)
from repro.store.remote import parse_peers
from repro.store.store import ArtifactStore

__all__ = ["PUSH_BATCH", "SYNC_KINDS", "push_missing", "sync_with_peers"]

#: The artifact kind the cache populates.  Sync also covers any other
#: kind found in the local index, such as entries an older checkout
#: wrote.
SYNC_KINDS = ("result",)

#: Fingerprints per ``store_has`` re-probe in :func:`push_missing`.
PUSH_BATCH = 64


def _local_index(store: ArtifactStore) -> Dict[str, Dict[str, str]]:
    """kind -> {fingerprint: oid} over every intact local entry."""
    index: Dict[str, Dict[str, str]] = {}
    for kind, fp, entry in store.iter_index():
        if entry is not None:
            index.setdefault(kind, {})[fp] = entry["oid"]
    return index


def sync_with_peers(
    store: ArtifactStore,
    peers: object,
    direction: str = "both",
    out: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Reconcile ``store`` with each peer; returns per-peer rows.

    ``direction`` is ``pull`` (fetch what the peer has and we lack),
    ``push`` (the reverse) or ``both``.  Each row reports ``pulled``,
    ``pushed``, ``errors`` (transfers refused by either side or dropped
    by the transport, and listed keys the local store refuses) and
    ``skipped`` (version skew / storeless / unreachable peers are
    skipped whole, with the reason).
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
        client = ServeClient.at(address, connect_retries=1)
        try:
            client.hello()
        except StorePeerUnusable as exc:  # includes version skew
            row["skipped"] = str(exc)
            emit(f"{address}: skipped ({exc})")
            continue
        except ServeError as exc:
            row["skipped"] = str(exc)
            emit(f"{address}: unreachable ({exc})")
            continue
        try:
            for kind in kinds:
                _sync_kind(store, client, kind, local.get(kind, {}),
                           direction, row, emit)
        except ServeError as exc:
            # The peer went away mid-pass; everything already landed
            # stays landed, the next run picks up the difference.
            row["errors"] += 1
            emit(f"{address}: aborted mid-sync ({exc})")
        emit(f"{address}: pulled {row['pulled']}, pushed {row['pushed']}, "
             f"errors {row['errors']}")
    return rows


def _sync_kind(
    store: ArtifactStore,
    client: ServeClient,
    kind: str,
    local: Dict[str, str],
    direction: str,
    row: Dict[str, Any],
    emit: Callable[[str], None],
) -> None:
    remote = client.store_has(kind, None)  # full listing: the diff base
    if direction in ("pull", "both"):
        for fp in sorted(set(remote) - set(local)):
            try:
                found = client.store_get(kind, fp)
            except (StoreIntegrityError, ServeRefused) as exc:
                row["errors"] += 1
                emit(f"{client.address}: pull {kind}/{fp} refused ({exc})")
                continue
            if found is None:
                continue  # gc'd (or torn) since the listing; fine
            _oid, data, meta = found
            try:
                store.put(kind, fp, data, meta)
            except ValueError as exc:  # the peer listed a bad fp
                row["errors"] += 1
                emit(f"{client.address}: pull {kind}/{fp!r} refused "
                     f"({exc})")
                continue
            row["pulled"] += 1
    if direction in ("push", "both"):
        want = sorted(set(local) - set(remote))
        for fp, outcome in push_missing(store, client, kind, want):
            if isinstance(outcome, ServeError):
                row["errors"] += 1
                emit(f"{client.address}: push {kind}/{fp} refused "
                     f"({outcome})")
            elif outcome:
                row["pushed"] += 1


def push_missing(
    store: ArtifactStore,
    client: ServeClient,
    kind: str,
    fps: List[str],
) -> Iterator[Tuple[str, Union[bool, ServeError]]]:
    """Push to ``client`` each of ``fps`` it lacks; yield ``(fp, outcome)``.

    Each batch is re-probed with ``store_has`` right before its puts
    (another pusher may have filled it meanwhile).  ``outcome`` is True
    when pushed, False when verified present on the peer or missing or
    torn locally (unverifiable bytes are never pushed), or the
    :class:`StoreIntegrityError` or :class:`ServeRefused` that refused
    this one entry.  Any other :class:`ServeError` propagates, leaving
    the rest unsettled.
    """
    for start in range(0, len(fps), PUSH_BATCH):
        chunk = fps[start:start + PUSH_BATCH]
        present = client.store_has(kind, chunk)
        for fp in chunk:
            found = None if fp in present else store.read(kind, fp)
            if found is None:
                yield fp, False
                continue
            entry, data = found
            try:
                client.store_put(kind, fp, data, entry["meta"])
            except (StoreIntegrityError, ServeRefused) as exc:
                yield fp, exc
                continue
            yield fp, True
