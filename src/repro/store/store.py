"""The on-disk artifact store: one self-verifying file per entry.

Each entry is one file, ``entries/<kind>/<fp>``: a one-line JSON
header (``oid``, the SHA-256 of the payload; ``size``; ``meta``), a
newline, then the payload bytes.  Every write is a temp file in the
destination directory followed by ``os.replace``, so

* readers never see a partially written entry, and
* when several writers race on one key — two sweeps on one store
  saving the same result — each write is complete and one wins.

Reads are paranoid: a file that fails to parse, or whose payload has
the wrong size or no longer hashes to its ``oid``, is treated as a miss
(``None``), never returned as data, and the next ``put`` of that key
overwrites it.  Kinds must be plain lowercase names and fingerprints 64
lowercase hex digits (anything else raises ``ValueError``), so no key
can name a path outside the store.  The maintenance surface
(:meth:`stats` / :meth:`verify` / :meth:`gc`) backs the
``repro-experiments cache`` subcommand.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs

#: Environment variable naming the default store directory.
STORE_ENV = "REPRO_STORE"

#: gc only sweeps temp files older than this — a younger one may be a
#: concurrent run's in-flight atomic write.
TMP_MAX_AGE_SECONDS = 3600.0

#: gc drops sweep journals (see ``runs/``) untouched for this long even
#: when incomplete — the sweep is presumed abandoned; its results stay
#: subject to the ordinary entry policy.
JOURNAL_MAX_AGE_SECONDS = 30 * 86400.0

#: Fault-injection seam: ``repro.exec.faults`` installs a callable here
#: (and only then) so tests can interrupt a write between the temp file
#: and its atomic replace.  ``None`` — the production state — costs one
#: attribute test per write.  The store must never import ``repro.exec``
#: itself; the hook is pushed in from the other side.
_write_fault_hook = None

_KIND = re.compile(r"[a-z]+")
_FP = re.compile(r"[0-9a-f]{64}")


def _atomic_write(path: str, data: bytes,
                  fault_target: Optional[str] = None) -> None:
    """Write ``data`` to ``path`` atomically (temp file + replace)."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        hook = _write_fault_hook
        if hook is not None and fault_target is not None:
            hook(fault_target)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# sweep journals (written by repro.exec.journal, collected by gc below)
# ----------------------------------------------------------------------
def journal_header_line(sweep_fp: str, cells: int) -> str:
    """The JSON header line opening a sweep journal."""
    return json.dumps(
        {"journal": 1, "sweep": sweep_fp, "cells": cells}, sort_keys=True
    )


def append_journal_lines(path: str, lines: "List[str]") -> None:
    """Append ``lines`` to a journal in one ``O_APPEND`` write.

    POSIX appends of one small buffer are atomic enough for this
    format: concurrent writers interleave whole lines, and a writer
    killed mid-write can at worst leave a torn *final* line, which
    :func:`read_journal` skips.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    data = "".join(line + "\n" for line in lines).encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def read_journal(path: str) -> Optional[dict]:
    """Parse a sweep journal: ``{"sweep", "cells", "done"}`` or None.

    Tolerant by construction — a missing or unreadable file is None, a
    torn or alien line is skipped, duplicate headers (two racing runs
    both opening the journal) collapse to the first.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    sweep: Optional[str] = None
    cells: Optional[int] = None
    done: List[str] = []
    seen = set()
    for line in raw.decode("ascii", errors="replace").splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("{"):
            try:
                header = json.loads(line)
            except ValueError:
                continue
            if (
                sweep is None
                and isinstance(header, dict)
                and isinstance(header.get("sweep"), str)
                and isinstance(header.get("cells"), int)
            ):
                sweep = header["sweep"]
                cells = header["cells"]
            continue
        if _FP.fullmatch(line) and line not in seen:
            seen.add(line)
            done.append(line)
    if sweep is None and not done:
        return None
    return {"sweep": sweep, "cells": cells, "done": done}


def _load(path: str) -> Optional[Tuple[dict, bytes]]:
    """Parse and re-hash one entry file: ``(header, payload)``, or None
    when it is corrupt (unparseable, malformed, wrong size or hash).
    Raises ``OSError`` when the file cannot be read at all."""
    with open(path, "rb") as fh:
        raw = fh.read()
    line, newline, data = raw.partition(b"\n")
    try:
        entry = json.loads(line)
    except ValueError:
        return None
    if (
        not newline
        or not isinstance(entry, dict)
        or not isinstance(entry.get("oid"), str)
        or not isinstance(entry.get("size"), int)
        or not isinstance(entry.get("meta"), dict)
        or entry["size"] != len(data)
        or hashlib.sha256(data).hexdigest() != entry["oid"]
    ):
        return None
    return entry, data


class ArtifactStore:
    """An artifact store rooted at one directory."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(os.fspath(root))

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def entries_dir(self) -> str:
        return os.path.join(self.root, "entries")

    @property
    def runs_dir(self) -> str:
        """Sweep journals (see :mod:`repro.exec.journal`)."""
        return os.path.join(self.root, "runs")

    def _entry_path(self, kind: str, fp: str) -> str:
        """The file of one key; every keyed method resolves through
        here, so no key can name a path outside the store."""
        if not _KIND.fullmatch(kind):
            raise ValueError(f"bad artifact kind {kind!r}")
        if not _FP.fullmatch(fp):
            raise ValueError(f"bad fingerprint {fp!r}")
        return os.path.join(self.entries_dir, kind, fp)

    def journal_path(self, sweep_fp: str) -> str:
        return os.path.join(self.runs_dir, sweep_fp + ".journal")

    def events_path(self, sweep_fp: str) -> str:
        """The flight-recorder file living next to a sweep's journal."""
        return os.path.join(self.runs_dir, sweep_fp + ".events")

    def iter_journals(self) -> Iterator[Tuple[str, str]]:
        """Yield (sweep fingerprint, path) for every journal present."""
        runs_dir = self.runs_dir
        if not os.path.isdir(runs_dir):
            return
        for name in sorted(os.listdir(runs_dir)):
            if name.startswith(".tmp-") or not name.endswith(".journal"):
                continue
            yield name[: -len(".journal")], os.path.join(runs_dir, name)

    def check_writable(self) -> Optional[str]:
        """Probe that this store can accept writes.

        Returns None on success, else a human-readable reason.  Run
        attach points call this so a read-only or otherwise broken
        store degrades to a storeless run with one up-front warning,
        instead of failing on the first ``put`` deep inside a worker.
        The probe file uses the ``.tmp-`` prefix, so an interrupted
        probe is swept by gc like any stray temp file.
        """
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, probe = tempfile.mkstemp(dir=self.root, prefix=".tmp-probe-")
            try:
                os.write(fd, b"ok")
            finally:
                os.close(fd)
            os.unlink(probe)
        except OSError as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    # ------------------------------------------------------------------
    # read/write
    # ------------------------------------------------------------------
    def put(
        self, kind: str, fp: str, data: bytes, meta: Optional[dict] = None
    ) -> str:
        """Store ``data`` under ``(kind, fp)``; returns its oid."""
        oid = hashlib.sha256(data).hexdigest()
        header = {"meta": meta or {}, "oid": oid, "size": len(data)}
        _atomic_write(
            self._entry_path(kind, fp),
            json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
            + data,
            fault_target=f"{kind}/{fp}",
        )
        return oid

    def read(self, kind: str, fp: str) -> Optional[Tuple[dict, bytes]]:
        """``(header, payload)`` for a key, or None on any failure.

        The payload is re-hashed on every read: a missing, truncated,
        tampered or malformed entry is a miss, never returned as data.
        The header holds ``oid``, ``size`` and ``meta``.
        """
        try:
            return _load(self._entry_path(kind, fp))
        except OSError:
            return None

    def get_entry(self, kind: str, fp: str) -> Optional[dict]:
        """The verified header for a key, or None."""
        found = self.read(kind, fp)
        return None if found is None else found[0]

    def get(self, kind: str, fp: str) -> Optional[bytes]:
        """The verified payload for a key, or None."""
        found = self.read(kind, fp)
        return None if found is None else found[1]

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def _entry_files(
        self, kind: Optional[str] = None
    ) -> Iterator[Tuple[str, str, str]]:
        """Yield (kind, fingerprint, path) for every entry file, or for
        those of one ``kind`` (none for a malformed kind)."""
        entries_dir = self.entries_dir
        if not os.path.isdir(entries_dir):
            return
        kinds = sorted(os.listdir(entries_dir)) if kind is None else [kind]
        for name in kinds:
            if not _KIND.fullmatch(name):
                continue
            kind_dir = os.path.join(entries_dir, name)
            if not os.path.isdir(kind_dir):
                continue
            for fp in sorted(os.listdir(kind_dir)):
                if _FP.fullmatch(fp):  # skips in-flight .tmp- files
                    yield name, fp, os.path.join(kind_dir, fp)

    def iter_index(
        self, kind: Optional[str] = None
    ) -> Iterator[Tuple[str, str, Optional[dict]]]:
        """Yield (kind, fingerprint, header-or-None) for every entry, or
        for every entry of one ``kind``."""
        for name, fp, _path in self._entry_files(kind):
            yield name, fp, self.get_entry(name, fp)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Entry counts and payload bytes per kind, plus journals."""
        kinds: Dict[str, dict] = {}
        bad_entries = 0
        for kind, _fp, entry in self.iter_index():
            row = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            if entry is None:
                bad_entries += 1
                continue
            row["entries"] += 1
            row["bytes"] += entry["size"]
        journals = 0
        journal_bytes = 0
        journals_complete = 0
        ages: List[float] = []
        now = time.time()
        for _sweep_fp, path in self.iter_journals():
            journals += 1
            if _journal_complete(read_journal(path)):
                journals_complete += 1
            try:
                journal_bytes += os.path.getsize(path)
                ages.append(max(0.0, now - os.path.getmtime(path)))
            except OSError:
                continue
        return {
            "root": self.root,
            "kinds": kinds,
            "bad_entries": bad_entries,
            "journals": journals,
            "journal_bytes": journal_bytes,
            "journals_complete": journals_complete,
            "journal_oldest_seconds": max(ages) if ages else None,
            "journal_newest_seconds": min(ages) if ages else None,
        }

    def verify(self) -> dict:
        """Re-read and re-hash every entry.

        Returns ``{"checked", "corrupt", "unreadable"}``: ``corrupt``
        lists the (kind, fingerprint) keys whose file is malformed or
        whose payload no longer matches its header (``gc`` deletes
        these), ``unreadable`` the keys whose file could not be read at
        all (possibly transient — permissions, I/O — so ``gc`` leaves
        them alone).
        """
        checked = 0
        corrupt: List[Tuple[str, str]] = []
        unreadable: List[Tuple[str, str]] = []
        for kind, fp, path in self._entry_files():
            checked += 1
            try:
                if _load(path) is None:
                    corrupt.append((kind, fp))
            except OSError:
                unreadable.append((kind, fp))
        return {"checked": checked, "corrupt": corrupt,
                "unreadable": unreadable}

    def gc(
        self,
        max_bytes: Optional[int] = None,
        dry_run: bool = False,
        journal_max_age: Optional[float] = None,
    ) -> dict:
        """Collect garbage; optionally evict down to a size cap.

        ``journal_max_age`` (seconds) overrides the default
        :data:`JOURNAL_MAX_AGE_SECONDS` abandoned-sweep rule in step 4
        below — the CLI exposes it as ``cache gc --journal-days``.

        Policy, in order:

        1. stray temp files from interrupted writes are removed (only
           ones older than :data:`TMP_MAX_AGE_SECONDS` — a young temp
           file may be a concurrent run's in-flight write);
        2. corrupt entries (the ones :meth:`verify` flags as corrupt)
           are deleted, so a store ``verify`` flags comes back clean
           after ``gc`` (the affected keys simply go cold); unreadable
           ones are kept;
        3. if ``max_bytes`` is given and the live entries' payload bytes
           exceed it, whole entries are evicted oldest-first (file
           mtime — i.e. least recently *written*; reads do not refresh
           entries) until the rest fits;
        4. sweep journals (``runs/``) are pruned: a *complete* journal
           (every cell it declared is recorded) older than
           :data:`TMP_MAX_AGE_SECONDS` has served its purpose, and any
           journal — complete, torn or headerless — untouched for
           :data:`JOURNAL_MAX_AGE_SECONDS` is an abandoned sweep.  A
           sweep's flight-recorder file goes with its journal, and one
           without a journal ages out under the abandoned-sweep rule.
           Journal lines do **not** pin result entries against the
           size-cap eviction above: a resumed sweep whose results were
           evicted simply re-simulates those cells.

        With ``dry_run`` nothing is deleted; the returned summary shows
        what would happen.  Returns ``{"evicted_entries", "freed_bytes",
        "live_bytes", "tmp_removed", "journals_removed",
        "events_removed", "dry_run"}``; ``evicted_entries`` counts the
        corrupt and the capped entries, the two byte counts are payload
        bytes of intact entries.
        """
        now = time.time()

        def age(path: str) -> float:
            # An unstattable file reads as brand new, so it is kept.
            try:
                return now - os.path.getmtime(path)
            except OSError:
                return 0.0

        def drop(path: str) -> None:
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:
                    pass

        # The whole root: entries/, runs/ and the top level (where
        # check_writable probes land if interrupted).
        tmp_removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                if name.startswith(".tmp-") and \
                        age(path) >= TMP_MAX_AGE_SECONDS:
                    tmp_removed += 1
                    drop(path)

        evicted = 0
        live: List[Tuple[float, str, int]] = []  # (mtime, path, size)
        for _kind, _fp, path in self._entry_files():
            try:
                found = _load(path)
            except OSError:
                continue  # unreadable, maybe transiently: kept
            if found is None:
                evicted += 1
                drop(path)
            else:
                live.append((now - age(path), path, found[0]["size"]))
        live_bytes = sum(size for _mtime, _path, size in live)
        freed = 0
        if max_bytes is not None:
            live.sort()  # oldest first
            for _mtime, path, size in live:
                if live_bytes <= max_bytes:
                    break
                evicted += 1
                freed += size
                live_bytes -= size
                drop(path)

        journal_age_limit = (
            JOURNAL_MAX_AGE_SECONDS if journal_max_age is None
            else journal_max_age
        )
        journals = list(self.iter_journals())
        journals_removed = 0
        events_removed = 0
        for sweep_fp, path in journals:
            journal_age = age(path)
            if not (journal_age > journal_age_limit or (
                    journal_age > TMP_MAX_AGE_SECONDS
                    and _journal_complete(read_journal(path)))):
                continue
            journals_removed += 1
            drop(path)
            events = self.events_path(sweep_fp)
            if os.path.exists(events):
                events_removed += 1
                drop(events)
        with_journal = {sweep_fp for sweep_fp, _path in journals}
        if os.path.isdir(self.runs_dir):
            for name in sorted(os.listdir(self.runs_dir)):
                path = os.path.join(self.runs_dir, name)
                if (
                    name.endswith(".events")
                    and not name.startswith(".tmp-")
                    and name[: -len(".events")] not in with_journal
                    and age(path) > journal_age_limit
                ):
                    events_removed += 1
                    drop(path)

        report = {
            "evicted_entries": evicted,
            "freed_bytes": freed,
            "live_bytes": live_bytes,
            "tmp_removed": tmp_removed,
            "journals_removed": journals_removed,
            "events_removed": events_removed,
            "dry_run": dry_run,
        }
        if not dry_run:
            obs.STORE_GC_RUNS.inc()
            for what, count in (
                ("entry", evicted), ("tmp", tmp_removed),
                ("journal", journals_removed), ("events", events_removed),
            ):
                if count:
                    obs.STORE_GC_REMOVED.inc(count, what=what)
            obs.record_event("gc", root=self.root, **{
                key: value for key, value in report.items()
                if key != "dry_run"
            })
        return report


def _journal_complete(record: Optional[dict]) -> bool:
    """Whether a parsed journal records every cell it declared."""
    return (
        record is not None
        and record["cells"] is not None
        and len(record["done"]) >= record["cells"]
    )


def default_store_root() -> Optional[str]:
    """The store directory named by ``$REPRO_STORE``, if set."""
    root = os.environ.get(STORE_ENV)
    return root or None
