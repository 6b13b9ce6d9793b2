"""Flight recorder: a ring-buffered LDJSON trace of typed events.

A :class:`FlightRecorder` keeps the last ``capacity`` events in memory
and, when given a path, appends each event as one JSON line — the same
single-``os.write`` O_APPEND discipline as the sweep journal, so
events from forked workers interleave whole-line and a crash can tear
at most the final line.  Recorder files live next to the sweep journal
(``runs/<sweep-fp>.events``) and are garbage-collected with it.

The on-disk file is itself a ring: once it would exceed ``max_bytes``
the *creating* process rewrites it atomically from the tail of the
existing file (keeping the newest ``capacity`` raw lines — including
lines appended by forked workers, which the in-memory ring never saw).
Forked children never rotate; they only append.  A concurrent append
during the rare rewrite window can be lost, which is the accepted
trade for a bounded file — this is a flight recorder, not a ledger.

:func:`read_events` mirrors the journal reader's torn-tail tolerance:
unparseable lines, non-objects, and lines without an ``"ev"`` field
are skipped, never fatal.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.common.forksafe import fork_safe_lock

__all__ = ["FlightRecorder", "read_events"]

#: Default in-memory (and rotated on-disk) event count.
DEFAULT_CAPACITY = 2048

#: Default on-disk ceiling before the creator rewrites from the tail.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024

class FlightRecorder:
    """Bounded event sink; optionally persisted as LDJSON.

    ``record`` never raises for I/O reasons: the first failed write
    degrades the recorder to memory-only for the rest of its life,
    mirroring how an unwritable store degrades to recompute.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        capacity: int = DEFAULT_CAPACITY,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.capacity = int(capacity)
        self.max_bytes = int(max_bytes)
        self._ring: deque = deque(maxlen=self.capacity)
        self._lock = fork_safe_lock()
        self._creator_pid = os.getpid()
        self._degraded = False
        self._size = 0
        if self.path is not None:
            try:
                self._size = os.path.getsize(self.path)
            except OSError:
                self._size = 0

    # -- recording ------------------------------------------------------

    def record(self, event: Dict[str, object]) -> None:
        with self._lock:
            self._ring.append(event)
            if self.path is None or self._degraded:
                return
            try:
                line = json.dumps(
                    event, sort_keys=True, separators=(",", ":"),
                    default=str,
                )
            except (TypeError, ValueError):
                return
            data = (line + "\n").encode("utf-8")
            try:
                if (
                    self._size + len(data) > self.max_bytes
                    and os.getpid() == self._creator_pid
                ):
                    self._rotate_locked()
                fd = os.open(
                    self.path,
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                    0o644,
                )
                try:
                    os.write(fd, data)
                finally:
                    os.close(fd)
                self._size += len(data)
            except OSError:
                self._degraded = True

    def _rotate_locked(self) -> None:
        """Rewrite the file from its own tail; caller holds the lock."""
        try:
            with open(self.path, "rb") as fh:
                raw_lines = fh.read().splitlines(True)
        except OSError:
            raw_lines = []
        keep = raw_lines[-self.capacity:]
        directory = os.path.dirname(self.path) or "."
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-events-", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(keep)
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._size = sum(len(line) for line in keep)

    # -- inspection -----------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self._degraded

    def events(self) -> List[Dict[str, object]]:
        """The in-memory ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlightRecorder(path={self.path!r}, "
            f"events={len(self)}, degraded={self._degraded})"
        )


def read_events(path: str) -> List[Dict[str, object]]:
    """Parse a recorder file, skipping torn or alien lines.

    Tolerates exactly what the journal reader tolerates: a missing
    file reads as empty, a torn final line (crash mid-append) and any
    line that is not a JSON object with an ``"ev"`` field are skipped.
    """
    events: List[Dict[str, object]] = []
    try:
        fh: Iterable[str] = open(path, "r", encoding="utf-8", errors="replace")
    except OSError:
        return events
    with fh:  # type: ignore[union-attr]
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict) and "ev" in event:
                events.append(event)
    return events


def tail_events(path: str, count: int) -> List[Dict[str, object]]:
    """The last ``count`` well-formed events of a recorder file."""
    events = read_events(path)
    if count <= 0:
        return []
    return events[-count:]
