"""In-flight fingerprint registry: dedup *concurrent* cold lookups.

The store already dedups *completed* work — two writers racing on one
fingerprint leave one entry.  What it cannot see is work that is still
running: two concurrent requests for the same cold cell would both
simulate it, and only discover the duplication when the second ``put``
lands on an existing entry.  For a process
that serves many clients (the ``repro.serve`` daemon), that is the
difference between N identical requests costing one simulation or N.

:class:`PendingRegistry` closes that window.  The first caller to
:meth:`claim` a fingerprint becomes its **owner** — the one who must
compute the value and :meth:`resolve` (or :meth:`fail`) it; every
further claimant becomes a **subscriber** on the same
:class:`PendingCell` and just waits.  Entries are reference-counted:
:meth:`release` drops one subscription, and a cell whose subscribers
all gave up before anyone started computing it reports itself
abandonable (:meth:`PendingCell.abandoned`), so a scheduler can drop
queued work nobody is waiting for.

The registry is deliberately process-local and in-memory: cross-process
dedup is the store's job (atomic writes, content addressing); this
layer only has to collapse concurrency *within* the serving process,
where all concurrent requests meet anyway.  All methods are
thread-safe.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

__all__ = ["PendingCell", "PendingRegistry"]


class PendingCell:
    """One in-flight computation, shared by its owner and subscribers."""

    __slots__ = ("fp", "subscribers", "started", "_event", "_status",
                 "_value", "_error", "_lock")

    def __init__(self, fp: str) -> None:
        self.fp = fp
        #: Claims not yet released (owner included).
        self.subscribers = 1
        #: Whether the owner has begun computing (an abandoned queued
        #: cell may be dropped; an abandoned *running* cell still
        #: resolves, so its result reaches the store).
        self.started = False
        self._event = threading.Event()
        self._status: Optional[str] = None   # "ok" | "failed"
        self._value: Any = None
        self._error: Optional[str] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def settled(self) -> bool:
        return self._event.is_set()

    def abandoned(self) -> bool:
        """True when nobody waits for this cell and it never started."""
        with self._lock:
            return self.subscribers <= 0 and not self.started \
                and not self._event.is_set()

    def mark_started(self) -> None:
        with self._lock:
            self.started = True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the cell settles; False on timeout."""
        return self._event.wait(timeout)

    def outcome(self) -> Tuple[Optional[str], Any, Optional[str]]:
        """``(status, value, error)`` — status None while in flight."""
        return self._status, self._value, self._error

    # owner-side -------------------------------------------------------
    def _settle(self, status: str, value: Any, error: Optional[str]) -> None:
        with self._lock:
            if self._event.is_set():  # first settle wins
                return
            self._status = status
            self._value = value
            self._error = error
            self._event.set()


class PendingRegistry:
    """Thread-safe fingerprint -> :class:`PendingCell` map."""

    def __init__(self) -> None:
        self._cells: Dict[str, PendingCell] = {}
        self._lock = threading.Lock()
        #: Claims that subscribed to an existing in-flight cell instead
        #: of owning a new one — the daemon's "coalesced" counter.
        self.coalesced = 0

    def claim(self, fp: str) -> Tuple[PendingCell, bool]:
        """Subscribe to ``fp``; returns ``(cell, is_owner)``.

        The owner (first claimant since the cell last settled or was
        abandoned) must eventually :meth:`resolve` or :meth:`fail` the
        fingerprint; everyone else just waits on the cell.  Every claim
        — owner or not — must be balanced by :meth:`release`.
        """
        with self._lock:
            cell = self._cells.get(fp)
            if cell is not None and not cell.settled:
                cell.subscribers += 1
                self.coalesced += 1
                return cell, False
            cell = PendingCell(fp)
            self._cells[fp] = cell
            return cell, True

    def get(self, fp: str) -> Optional[PendingCell]:
        with self._lock:
            return self._cells.get(fp)

    def resolve(self, fp: str, value: Any) -> None:
        """Owner: publish a computed value and wake all subscribers."""
        self._settle(fp, "ok", value, None)

    def fail(self, fp: str, error: str) -> None:
        """Owner: publish a failure and wake all subscribers."""
        self._settle(fp, "failed", None, error)

    def _settle(self, fp: str, status: str, value: Any,
                error: Optional[str]) -> None:
        with self._lock:
            cell = self._cells.pop(fp, None)
        if cell is not None:
            cell._settle(status, value, error)

    def release(self, fp: str, cell: Optional[PendingCell] = None) -> int:
        """Drop one subscription; returns the remaining count.

        A cell all of whose subscribers released before the owner
        started computing is removed from the registry (the next claim
        of the fingerprint starts fresh) — this is how a request
        hitting its deadline cancels queued-but-unstarted cells without
        touching ones another request still wants.
        """
        with self._lock:
            live = self._cells.get(fp)
            if cell is None:
                cell = live
            if cell is None:
                return 0
            with cell._lock:
                cell.subscribers -= 1
                remaining = cell.subscribers
                drop = (remaining <= 0 and not cell.started
                        and not cell._event.is_set())
            if drop and live is cell:
                del self._cells[fp]
            return remaining

    def depth(self) -> int:
        """In-flight (unsettled) fingerprints right now."""
        with self._lock:
            return len(self._cells)
