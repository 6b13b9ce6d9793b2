"""The tiered store: local :class:`ArtifactStore` under remote peers.

:class:`TieredStore` *is* an :class:`~repro.store.store.ArtifactStore`
(same root, same atomic-write discipline, drop-in wherever a store is
accepted) whose reads go through to remote peers on a local miss:

* **read-through fill** — a remote hit is re-hashed by the client,
  written locally via the store's own atomic-put path, and only then
  served; every later read is local.
* **replication** — a local put adds ``(kind, fp)`` to each usable
  peer's pending set and returns at once.  A background pusher drains
  the sets through :func:`~repro.store.remote.sync.push_missing`, the
  push routine of ``cache sync``; a key stays pending until its peer
  holds it, so a peer that was down at put time gets it when it heals.

Every contact with a peer, fill or push, is classified on the
:class:`~repro.serve.client.ServeClient` exception classes by one
helper (:meth:`TieredStore._record`), not retried blindly:

* :class:`~repro.serve.client.StorePeerUnusable` (``no_store``) and
  its subclass :class:`~repro.serve.client.StoreVersionSkew`: the peer
  is warned about once and never asked again; its pending set clears.
* :class:`~repro.serve.client.StoreIntegrityError` (bytes that do not
  hash to their oid) bumps a quarantine counter and is not retried — a
  lying peer can cost a recompute, never a wrong artifact.
* :class:`~repro.serve.client.ServeRefused` (the peer answered and
  refused the one request, e.g. a put past its frame limit) counts one
  error and warns once per peer; the key leaves the pending set, and
  the breaker is not struck.
* any other :class:`~repro.serve.client.ServeError` (connection
  refused, reset, timed out, garbage frames, daemon-side errors)
  strikes the peer's circuit breaker
  (:class:`repro.cluster.health.NodeHealth` — the same state machine,
  backoff, and deterministic jitter the cluster pool uses) and leaves
  the rest pending; a dead peer is only re-contacted when its probe
  backoff expires, and the read or push that contacts it is the probe.

When every peer is unusable or dead the tier warns once and runs
local-only — bit-identical to having no peers at all.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.common.warnonce import warn_once
from repro.cluster.health import HealthPolicy, NodeHealth
from repro.serve.client import (
    ServeClient,
    ServeError,
    ServeRefused,
    StoreIntegrityError,
    StorePeerUnusable,
    StoreVersionSkew,
)
from repro.store.remote import parse_peers
from repro.store.remote.sync import push_missing
from repro.store.store import ArtifactStore

__all__ = ["RemoteStorePeer", "TieredStore"]

#: Seconds between push passes while anything is pending; a put, a
#: flush or a close wakes the pusher at once.
_POLL = 0.5


class RemoteStorePeer:
    """One peer: client, breaker, pending set and counters."""

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
        #: Local puts, as ``(kind, fp)``, the peer has not acknowledged
        #: yet; guarded by the owning tier's lock.
        self.pending: Set[Tuple[str, str]] = set()
        self.hits = 0
        self.misses = 0
        self.integrity = 0
        self.errors = 0
        self.replicated = 0

    def due(self, now: float) -> bool:
        """Whether to contact the peer now (a dead one: as its probe)."""
        return not self.unusable and (
            self.health.usable() or self.health.due_for_probe(now))

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


class TieredStore(ArtifactStore):
    """Local store + remote read-through + background replication.

    Drop-in for :class:`ArtifactStore`: same constructor semantics for
    the local root, plus ``peers`` (comma string or sequence of
    ``host:port``).  With no peers it behaves exactly like the base
    class.
    """

    def __init__(self, root: str, peers: object = None,
                 health_policy: Optional[HealthPolicy] = None,
                 version: Optional[str] = None,
                 connect_timeout: float = 5.0,
                 request_timeout: Optional[float] = 30.0) -> None:
        super().__init__(root)
        self._peers: List[RemoteStorePeer] = [
            RemoteStorePeer(
                address, health_policy=health_policy, version=version,
                connect_timeout=connect_timeout,
                request_timeout=request_timeout,
            )
            for address in parse_peers(peers)
        ]
        # One lock guards the pending sets and the pusher's state.
        self._cond = threading.Condition()
        self._pusher: Optional[threading.Thread] = None
        self._wake = False
        self._closed = False
        self._passes_started = 0
        self._passes_done = 0
        self._dropped = 0

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
        """Try every due peer for ``(kind, fp)``; land the bytes
        locally via the atomic-put path on a verified hit."""
        consulted = False
        for peer in self._peers:
            if not peer.due(time.monotonic()):
                continue
            consulted = True
            try:
                found = peer.client.store_get(kind, fp)
            except ServeError as exc:
                self._record(peer, exc)
                continue
            self._record(peer)
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

    def _record(self, peer: RemoteStorePeer,
                exc: Optional[ServeError] = None) -> None:
        """Classify one contact with ``peer`` (a fill, a push pass, or
        one refused push); ``exc`` is None when the peer answered."""
        now = time.monotonic()
        probing = not peer.health.usable()
        if exc is None:
            if probing:
                peer.health.record_probe(now, True)
            peer.health.record_success()
        elif isinstance(exc, StorePeerUnusable):  # includes version skew
            peer.unusable = True
            with self._cond:
                peer.pending.clear()
            reason = ("version skew" if isinstance(exc, StoreVersionSkew)
                      else "unusable")
            warn_once(
                f"store.remote.{reason.replace(' ', '-')}:{peer.address}",
                f"store peer {peer.address} ignored ({reason}: {exc}); "
                f"continuing without it",
            )
        elif isinstance(exc, StoreIntegrityError):
            # Quarantine: no health strike — the transport demonstrably
            # works, and asking again would move the same bad bytes.
            peer.integrity += 1
            obs.STORE_REMOTE_INTEGRITY.inc(peer=peer.address)
        else:
            peer.errors += 1
            obs.STORE_REMOTE_ERRORS.inc(peer=peer.address)
            if isinstance(exc, ServeRefused):
                # No health strike either: the peer answered, and
                # asking again would be refused again.
                warn_once(f"store.remote.refused:{peer.address}",
                          f"store peer {peer.address} refused a request "
                          f"({exc}); refusals count in its errors and "
                          f"are not retried")
            elif probing:
                peer.health.record_probe(now, False)
            else:
                peer.health.record_failure(now)

    # ------------------------------------------------------------------
    # writes: local first, replicate behind
    # ------------------------------------------------------------------
    def put(self, kind: str, fp: str, data: bytes,
            meta: Optional[dict] = None) -> str:
        oid = super().put(kind, fp, data, meta)
        with self._cond:
            if self._peers and self._closed:
                self._drop(1, "a put after close() is stored locally but "
                              "not replicated to its peers")
            elif self._peers:
                for peer in self._peers:
                    if not peer.unusable:
                        peer.pending.add((kind, fp))
                self._kick()
        return oid

    def _kick(self) -> None:
        """Wake the pusher, starting it on first use (lock held)."""
        self._wake = True
        if self._pusher is None:
            self._pusher = threading.Thread(
                target=self._push_loop, name="store-push", daemon=True)
            self._pusher.start()
        self._cond.notify_all()

    def _backlog(self) -> int:
        """Keys pending, summed over peers (lock held)."""
        return sum(len(peer.pending) for peer in self._peers)

    def _push_loop(self) -> None:
        while True:
            with self._cond:
                if not (self._wake or self._closed):
                    self._cond.wait(_POLL if self._backlog() else None)
                if self._closed:
                    return
                self._wake = False
                self._passes_started += 1
            for peer in self._peers:
                if peer.due(time.monotonic()):
                    self._push(peer)
            with self._cond:
                self._passes_done += 1
                obs.STORE_REMOTE_REPLICATION_BACKLOG.set(self._backlog())
                self._cond.notify_all()

    def _push(self, peer: RemoteStorePeer) -> None:
        """Push ``peer``'s pending keys; settled ones leave its set."""
        by_kind: Dict[str, List[str]] = {}
        with self._cond:
            for kind, fp in peer.pending:
                by_kind.setdefault(kind, []).append(fp)
        if not by_kind:
            return
        try:
            for kind, fps in sorted(by_kind.items()):
                for fp, outcome in push_missing(
                        self.local_store(), peer.client, kind, sorted(fps)):
                    with self._cond:
                        peer.pending.discard((kind, fp))
                    if isinstance(outcome, ServeError):
                        self._record(peer, outcome)
                    elif outcome:
                        peer.replicated += 1
                        obs.STORE_REMOTE_REPLICATED.inc(peer=peer.address)
        except ServeError as exc:
            self._record(peer, exc)
        else:
            self._record(peer)

    def _drop(self, count: int, what: str) -> None:
        """Count ``count`` keys that no peer will get (lock held)."""
        self._dropped += count
        obs.STORE_REMOTE_REPLICATION_DROPPED.inc(count)
        warn_once(
            f"store.remote.dropped:{self.root}",
            f"store {self.root}: {what}; `repro-experiments cache sync` "
            f"pushes what the peers lack",
        )

    # ------------------------------------------------------------------
    def remote_stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "peers": [peer.stats() for peer in self._peers],
                "replication": {"backlog": self._backlog(),
                                "dropped": self._dropped},
            }

    def flush_replication(self, timeout: Optional[float] = 5.0) -> bool:
        """Wait for one push pass that begins after this call.

        True when no usable peer has anything pending afterwards; False
        on a timeout, or while a peer is down (its breaker decides when
        the pusher tries it again).
        """
        with self._cond:
            if self._backlog() and not self._closed:
                want = self._passes_started + 1
                self._kick()
                self._cond.wait_for(
                    lambda: self._passes_done >= want or self._closed,
                    timeout)
            return not self._backlog()

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Wait for one final push pass, then stop the pusher.

        Keys still pending then count as dropped, as does every later
        put; ``cache sync`` repairs both.
        """
        self.flush_replication(timeout)
        with self._cond:
            lost = self._backlog()
            if lost:
                self._drop(lost, f"{lost} put(s) still pending at close() "
                                 f"were not replicated to their peers")
            self._closed = True
            for peer in self._peers:
                peer.pending.clear()
            self._cond.notify_all()
        if self._pusher is not None:  # no pusher starts once closed
            self._pusher.join(timeout)
