"""The tiered store: local :class:`ArtifactStore` under remote peers.

:class:`TieredStore` *is* an :class:`~repro.store.store.ArtifactStore`
(same root, same atomic-write discipline, drop-in wherever a store is
accepted) whose reads go through to remote peers on a local miss:

* **read-through fill** — a remote hit is re-hashed by the client,
  written locally via the store's own atomic-put path, and only then
  served; every later read is local.
* **write-behind replication** — local puts enqueue ``(kind, fp)`` to
  a bounded background replicator that pushes the bytes to every
  usable peer.  Overflow drops the *oldest* entry (the newest write is
  the one a peer is most likely to want) with an obs counter; the
  simulate path never blocks on a slow peer.

Each peer is one :class:`~repro.serve.client.ServeClient`, and its
failures are classified by the client's exception classes, not
retried blindly:

* :class:`~repro.serve.client.StorePeerUnusable` (``no_store``) and
  its subclass :class:`~repro.serve.client.StoreVersionSkew`: the peer
  is warned about once and never asked again.
* :class:`~repro.serve.client.StoreIntegrityError` (bytes that do not
  hash to their oid) bumps a quarantine counter and degrades to a
  miss — a lying peer can cost a recompute, never a wrong artifact.
* any other :class:`~repro.serve.client.ServeError` (refused, reset,
  timed out, garbage frames, daemon-side errors) strikes the peer's
  circuit breaker (:class:`repro.cluster.health.NodeHealth` — the same
  state machine, backoff, and deterministic jitter the cluster pool
  uses) and falls through to the next peer; a dead peer is only
  re-contacted when its probe backoff expires, and the read that
  probes it is the probe.

When every peer is unusable or dead the tier warns once and runs
local-only — bit-identical to having no peers at all.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.common.warnonce import warn_once
from repro.cluster.health import HealthPolicy, NodeHealth
from repro.serve.client import (
    ServeClient,
    ServeError,
    StoreIntegrityError,
    StorePeerUnusable,
    StoreVersionSkew,
)
from repro.store.remote import parse_peers
from repro.store.store import ArtifactStore

__all__ = ["RemoteStorePeer", "TieredStore"]

#: Default bound on the write-behind queue (entries, not bytes — each
#: entry is just a ``(kind, fp)`` pair; bytes are read back from the
#: local store at send time).
DEFAULT_REPLICATION_LIMIT = 256


class RemoteStorePeer:
    """One peer: its :class:`ServeClient` + breaker + per-peer counters."""

    def __init__(self, address: str,
                 health_policy: Optional[HealthPolicy] = None,
                 version: Optional[str] = None,
                 connect_timeout: float = 5.0,
                 request_timeout: Optional[float] = 30.0) -> None:
        self.address = address
        self.client = ServeClient.at(
            address, connect_timeout=connect_timeout, connect_retries=1,
            request_timeout=request_timeout, version=version,
        )
        self.health = NodeHealth(address, health_policy)
        #: Set when the peer can never serve us (no store, version
        #: skew): it is skipped without further network traffic.
        self.unusable = False
        self.hits = 0
        self.misses = 0
        self.integrity = 0
        self.errors = 0
        self.replicated = 0

    def stats(self) -> Dict[str, Any]:
        return {
            "peer": self.address,
            "state": "unusable" if self.unusable else self.health.state,
            "hits": self.hits,
            "misses": self.misses,
            "integrity": self.integrity,
            "errors": self.errors,
            "replicated": self.replicated,
            "breaker_trips": self.health.breaker_trips,
        }


class _Replicator:
    """Bounded write-behind queue pushing local puts to peers."""

    def __init__(self, local: ArtifactStore,
                 peers: Sequence[RemoteStorePeer],
                 limit: int = DEFAULT_REPLICATION_LIMIT,
                 autostart: bool = True) -> None:
        self._local = local
        self._peers = peers
        self._limit = max(1, int(limit))
        self._autostart = autostart
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._inflight = 0
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        self.dropped = 0

    # ------------------------------------------------------------------
    def enqueue(self, kind: str, fp: str) -> None:
        """Queue one local put for replication; never blocks.

        A put after :meth:`stop` is not replicated: it counts as
        dropped, and the first one per store root warns.
        """
        with self._cond:
            if self._stopping:
                self.dropped += 1
                obs.STORE_REMOTE_REPLICATION_DROPPED.inc()
                warn_once(
                    f"store.remote.closed:{self._local.root}",
                    f"store {self._local.root}: a put after close() is "
                    f"stored locally but not replicated to its peers",
                )
                return
            self._queue.append((kind, fp))
            while len(self._queue) > self._limit:
                self._queue.popleft()  # oldest first: newest wins
                self.dropped += 1
                obs.STORE_REMOTE_REPLICATION_DROPPED.inc()
            obs.STORE_REMOTE_REPLICATION_BACKLOG.set(len(self._queue))
            self._cond.notify_all()
            if self._autostart and self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="store-replicate", daemon=True)
                self._thread.start()

    def backlog(self) -> int:
        with self._cond:
            return len(self._queue) + self._inflight

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Replicate one queued entry synchronously; False when idle.

        The worker thread loops this; tests call it directly for a
        threadless, deterministic drain.
        """
        with self._cond:
            if not self._queue:
                return False
            kind, fp = self._queue.popleft()
            self._inflight += 1
            obs.STORE_REMOTE_REPLICATION_BACKLOG.set(len(self._queue))
        try:
            self._replicate(kind, fp)
        finally:
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()
        return True

    def _replicate(self, kind: str, fp: str) -> None:
        # Bytes are read back at send time: if the entry was since
        # gc'd (or is torn) there is nothing to push.
        found = self._local.read(kind, fp)
        if found is None:
            return
        entry, data = found
        meta = entry["meta"]
        now = time.monotonic()
        for peer in self._peers:
            if peer.unusable or not peer.health.usable():
                continue  # read path owns the probing
            try:
                peer.client.store_put(kind, fp, data, meta)
            except StorePeerUnusable as exc:  # includes version skew
                _mark_unusable(peer, exc)
            except StoreIntegrityError:
                peer.integrity += 1
                obs.STORE_REMOTE_INTEGRITY.inc(peer=peer.address)
            except ServeError:
                peer.errors += 1
                obs.STORE_REMOTE_ERRORS.inc(peer=peer.address)
                peer.health.record_failure(now)
            else:
                peer.replicated += 1
                obs.STORE_REMOTE_REPLICATED.inc(peer=peer.address)
                peer.health.record_success()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait(0.5)
                if self._stopping and not self._queue:
                    return
            self.step()

    # ------------------------------------------------------------------
    def flush(self, timeout: Optional[float] = 5.0) -> bool:
        """Wait until the queue drains; False if the timeout expired."""
        if self._thread is None:
            while self.step():
                pass
            return True
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._queue and not self._inflight, timeout)

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None


def _mark_unusable(peer: RemoteStorePeer, exc: Exception) -> None:
    peer.unusable = True
    reason = ("version skew" if isinstance(exc, StoreVersionSkew)
              else "unusable")
    warn_once(
        f"store.remote.{reason.replace(' ', '-')}:{peer.address}",
        f"store peer {peer.address} ignored ({reason}: {exc}); "
        f"continuing without it",
    )


class TieredStore(ArtifactStore):
    """Local store + remote read-through + write-behind replication.

    Drop-in for :class:`ArtifactStore`: same constructor semantics for
    the local root, plus ``peers`` (comma string or sequence of
    ``host:port``).  With no peers it behaves exactly like the base
    class.
    """

    def __init__(self, root: str, peers: object = None,
                 health_policy: Optional[HealthPolicy] = None,
                 version: Optional[str] = None,
                 replication_limit: int = DEFAULT_REPLICATION_LIMIT,
                 connect_timeout: float = 5.0,
                 request_timeout: Optional[float] = 30.0,
                 replicate_async: bool = True) -> None:
        super().__init__(root)
        self._peers: List[RemoteStorePeer] = [
            RemoteStorePeer(
                address, health_policy=health_policy, version=version,
                connect_timeout=connect_timeout,
                request_timeout=request_timeout,
            )
            for address in parse_peers(peers)
        ]
        self._replicator = _Replicator(
            ArtifactStore(self.root), self._peers,
            limit=replication_limit, autostart=replicate_async,
        )

    # ------------------------------------------------------------------
    @property
    def peers(self) -> Tuple[RemoteStorePeer, ...]:
        return tuple(self._peers)

    def local_store(self) -> ArtifactStore:
        """The local layer alone — what a daemon serves to *its* peers
        (serving read-through fills to a peer that is also our peer
        would recurse)."""
        return ArtifactStore(self.root)

    # ------------------------------------------------------------------
    # reads: local first, then fill from peers
    # ------------------------------------------------------------------
    def read(self, kind: str, fp: str) -> Optional[Tuple[dict, bytes]]:
        found = super().read(kind, fp)
        if found is not None or not self._peers:
            return found
        if self._fill(kind, fp):
            return super().read(kind, fp)
        return None

    def _fill(self, kind: str, fp: str) -> bool:
        """Try every eligible peer for ``(kind, fp)``; land the bytes
        locally via the atomic-put path on a verified hit."""
        consulted = False
        for peer in self._peers:
            if peer.unusable:
                continue
            now = time.monotonic()
            probing = not peer.health.usable()
            if probing and not peer.health.due_for_probe(now):
                continue  # breaker open; not due yet
            consulted = True
            try:
                found = peer.client.store_get(kind, fp)
            except StorePeerUnusable as exc:  # includes version skew
                _mark_unusable(peer, exc)
                continue
            except StoreIntegrityError:
                # Quarantine: a lying peer costs a recompute, never a
                # wrong artifact.  No health strike — the transport
                # demonstrably works; trying again would re-fetch the
                # same bad bytes anyway, so fall through to a miss.
                peer.integrity += 1
                obs.STORE_REMOTE_INTEGRITY.inc(peer=peer.address)
                continue
            except ServeError:
                peer.errors += 1
                obs.STORE_REMOTE_ERRORS.inc(peer=peer.address)
                if probing:
                    peer.health.record_probe(now, False)
                else:
                    peer.health.record_failure(now)
                continue
            if probing:
                peer.health.record_probe(now, True)
            peer.health.record_success()
            if found is None:
                peer.misses += 1
                obs.STORE_REMOTE_MISSES.inc(peer=peer.address)
                continue
            _oid, data, meta = found
            # The client already verified data hashes to the oid; the
            # base put re-hashes once more and lands it atomically.
            ArtifactStore.put(self, kind, fp, data, meta)
            peer.hits += 1
            obs.STORE_REMOTE_HITS.inc(peer=peer.address)
            return True
        if self._peers and not consulted:
            warn_once(
                "store.remote.local-only:" +
                ",".join(p.address for p in self._peers),
                "all store peers unusable or dead; running local-only "
                "(dead peers keep getting probed on their backoff)",
            )
        return False

    # ------------------------------------------------------------------
    # writes: local first, replicate behind
    # ------------------------------------------------------------------
    def put(self, kind: str, fp: str, data: bytes,
            meta: Optional[dict] = None) -> str:
        oid = super().put(kind, fp, data, meta)
        if self._peers:
            self._replicator.enqueue(kind, fp)
        return oid

    # ------------------------------------------------------------------
    def remote_stats(self) -> Dict[str, Any]:
        return {
            "peers": [peer.stats() for peer in self._peers],
            "replication": {
                "backlog": self._replicator.backlog(),
                "dropped": self._replicator.dropped,
            },
        }

    def flush_replication(self, timeout: Optional[float] = 5.0) -> bool:
        return self._replicator.flush(timeout)

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Best-effort drain of the write-behind queue, then stop."""
        self._replicator.flush(timeout)
        self._replicator.stop(timeout)
