"""The on-disk content-addressed object store.

Two trees under one root::

    objects/<aa>/<rest>        # artifact bytes, named by their SHA-256
    index/<kind>/<fp>.json     # one JSON line: fingerprint -> object id

Objects are immutable and shared: two index entries whose artifacts
serialize identically reference one object file.  All writes go through
a temp file in the destination directory followed by ``os.replace``, so

* readers never see a partially written object or index entry, and
* when several writers race on one key — two sweeps on one store
  saving the same result — each write is complete and one wins.

Reads are paranoid: an index entry that fails to parse, references a
missing object, or references an object whose bytes no longer hash to
its name is treated as a miss (``None``), never returned as data.  The
maintenance surface (:meth:`stats` / :meth:`verify` / :meth:`gc`) backs
the ``repro-experiments cache`` subcommand.
"""

from __future__ import annotations

import hashlib
import json
import os
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
#: subject to the ordinary index/object policy.
JOURNAL_MAX_AGE_SECONDS = 30 * 86400.0

#: Fault-injection seam: ``repro.exec.faults`` installs a callable here
#: (and only then) so tests can interrupt a write between the temp file
#: and its atomic replace.  ``None`` — the production state — costs one
#: attribute test per write.  The store must never import ``repro.exec``
#: itself; the hook is pushed in from the other side.
_write_fault_hook = None

_FP_CHARS = set("0123456789abcdef")


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
        if len(line) == 64 and set(line) <= _FP_CHARS and line not in seen:
            seen.add(line)
            done.append(line)
    if sweep is None and not done:
        return None
    return {"sweep": sweep, "cells": cells, "done": done}


class ArtifactStore:
    """A content-addressed object store rooted at one directory."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(os.fspath(root))

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    @property
    def index_dir(self) -> str:
        return os.path.join(self.root, "index")

    @property
    def runs_dir(self) -> str:
        """Sweep journals (see :mod:`repro.exec.journal`)."""
        return os.path.join(self.root, "runs")

    def _object_path(self, oid: str) -> str:
        return os.path.join(self.objects_dir, oid[:2], oid[2:])

    def _index_path(self, kind: str, fp: str) -> str:
        return os.path.join(self.index_dir, kind, fp + ".json")

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
        """Store ``data`` and point ``(kind, fp)`` at it; returns the oid."""
        oid = hashlib.sha256(data).hexdigest()
        # Re-hash any existing file rather than trusting its presence:
        # writing over a *corrupt* object here is what lets a damaged
        # store heal on the recompute path instead of missing forever.
        if self._read_object(oid) is None:
            _atomic_write(self._object_path(oid), data,
                          fault_target=f"{kind}/{fp}:object")
        else:
            # Dedup hit: freshen the mtime so gc's racing-writer grace
            # also covers an aged orphan being re-referenced right now.
            try:
                os.utime(self._object_path(oid))
            except OSError:
                pass
        entry = {"object": oid, "size": len(data), "meta": meta or {}}
        _atomic_write(
            self._index_path(kind, fp),
            (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8"),
            fault_target=f"{kind}/{fp}:index",
        )
        return oid

    def get_entry(self, kind: str, fp: str) -> Optional[dict]:
        """The parsed index entry for a key, or None (incl. corrupt).

        Validates every field consumers touch — parseable-but-malformed
        entries (a null size, a non-dict meta) must degrade to a miss
        like any other corruption, not crash ``stats`` or a sweep
        mid-run.
        """
        try:
            with open(self._index_path(kind, fp), "rb") as fh:
                entry = json.loads(fh.read())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("object"), str)
            or not isinstance(entry.get("size", 0), int)
            or not isinstance(entry.get("meta", {}), dict)
        ):
            return None
        return entry

    def get(self, kind: str, fp: str) -> Optional[bytes]:
        """The object bytes for a key, hash-verified, or None on any
        failure (missing, truncated, or tampered — a miss, never lies)."""
        entry = self.get_entry(kind, fp)
        if entry is None:
            return None
        return self._read_object(entry["object"])

    def _read_object(self, oid: str) -> Optional[bytes]:
        try:
            with open(self._object_path(oid), "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != oid:
            return None
        return data

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def iter_index(self) -> Iterator[Tuple[str, str, Optional[dict]]]:
        """Yield (kind, fingerprint, entry-or-None) for every index file."""
        index_dir = self.index_dir
        if not os.path.isdir(index_dir):
            return
        for kind in sorted(os.listdir(index_dir)):
            kind_dir = os.path.join(index_dir, kind)
            if not os.path.isdir(kind_dir):
                continue
            for name in sorted(os.listdir(kind_dir)):
                if name.startswith(".tmp-") or not name.endswith(".json"):
                    continue
                fp = name[: -len(".json")]
                yield kind, fp, self.get_entry(kind, fp)

    def iter_objects(self) -> Iterator[Tuple[str, str]]:
        """Yield (oid, path) for every object file present."""
        objects_dir = self.objects_dir
        if not os.path.isdir(objects_dir):
            return
        for shard in sorted(os.listdir(objects_dir)):
            shard_dir = os.path.join(objects_dir, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.startswith(".tmp-"):
                    continue
                oid = shard + name
                if len(oid) == 64 and set(oid) <= _FP_CHARS:
                    yield oid, os.path.join(shard_dir, name)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _classify_objects(self) -> tuple:
        """One pass over all objects: ``(sizes, paths, intact, corrupt,
        unreadable)``.

        The single classification both :meth:`verify` and :meth:`gc`
        consume, so the two can never drift on what counts as corrupt:
        ``corrupt`` holds confirmed hash mismatches (reclaimable),
        ``unreadable`` holds objects whose bytes could not be read at
        all (possibly transient — these are also in ``intact``, i.e.
        treated as live, so a gc pass during an I/O hiccup cannot
        discard valid keys).
        """
        sizes: Dict[str, int] = {}
        paths: Dict[str, str] = {}
        intact: set = set()
        corrupt: List[str] = []
        unreadable: List[str] = []
        for oid, path in self.iter_objects():
            paths[oid] = path
            try:
                sizes[oid] = os.path.getsize(path)
            except OSError:
                sizes[oid] = 0
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                unreadable.append(oid)
                intact.add(oid)
                continue
            if hashlib.sha256(data).hexdigest() == oid:
                intact.add(oid)
            else:
                corrupt.append(oid)
        return sizes, paths, intact, corrupt, unreadable

    def stats(self) -> dict:
        """Object/index counts and byte totals, per artifact kind."""
        kinds: Dict[str, dict] = {}
        live: Dict[str, int] = {}
        bad_entries = 0
        for kind, fp, entry in self.iter_index():
            row = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            if entry is None:
                bad_entries += 1
                continue
            row["entries"] += 1
            row["bytes"] += int(entry.get("size", 0))
            live[entry["object"]] = 1
        objects = 0
        object_bytes = 0
        orphans = 0
        for oid, path in self.iter_objects():
            objects += 1
            try:
                object_bytes += os.path.getsize(path)
            except OSError:
                continue
            if oid not in live:
                orphans += 1
        journals = 0
        journal_bytes = 0
        journals_complete = 0
        ages: List[float] = []
        now = time.time()
        for _sweep_fp, path in self.iter_journals():
            journals += 1
            record = read_journal(path)
            if (
                record is not None
                and record["cells"] is not None
                and len(record["done"]) >= record["cells"]
            ):
                journals_complete += 1
            try:
                journal_bytes += os.path.getsize(path)
                ages.append(max(0.0, now - os.path.getmtime(path)))
            except OSError:
                continue
        return {
            "root": self.root,
            "kinds": kinds,
            "objects": objects,
            "object_bytes": object_bytes,
            "orphan_objects": orphans,
            "bad_entries": bad_entries,
            "journals": journals,
            "journal_bytes": journal_bytes,
            "journals_complete": journals_complete,
            "journal_oldest_seconds": max(ages) if ages else None,
            "journal_newest_seconds": min(ages) if ages else None,
        }

    def verify(self) -> dict:
        """Re-hash every object; cross-check the index.

        Returns ``{"checked", "corrupt_objects", "unreadable_objects",
        "dangling_entries", "bad_entries"}``: ``corrupt_objects`` lists
        object ids whose bytes no longer hash to their name (``gc``
        reclaims these), ``unreadable_objects`` lists ids whose bytes
        could not be read at all (possibly transient — permissions, I/O
        — so ``gc`` deliberately leaves them alone), and
        ``dangling_entries`` lists (kind, fingerprint) keys referencing
        a missing or corrupt object.
        """
        _sizes, paths, intact, corrupt, unreadable = self._classify_objects()
        dangling: List[Tuple[str, str]] = []
        bad_entries: List[Tuple[str, str]] = []
        for kind, fp, entry in self.iter_index():
            if entry is None:
                bad_entries.append((kind, fp))
            elif entry["object"] not in intact:
                dangling.append((kind, fp))
        return {
            "checked": len(paths),
            "corrupt_objects": corrupt,
            "unreadable_objects": unreadable,
            "dangling_entries": dangling,
            "bad_entries": bad_entries,
        }

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
        2. corrupt objects (bytes no longer hashing to their name) are
           deleted, and unparseable or dangling index entries — ones
           referencing a missing or corrupt object — are removed, so a
           store that ``verify`` flags as corrupt comes back clean
           after ``gc`` (the affected keys simply go cold);
        3. if ``max_bytes`` is given and live objects exceed it, whole
           index entries are evicted oldest-first (index mtime — i.e.
           least recently *written*; reads do not refresh entries) until
           the live total fits;
        4. sweep journals (``runs/``) are pruned: a *complete* journal
           (every cell it declared is recorded) older than
           :data:`TMP_MAX_AGE_SECONDS` has served its purpose, and any
           journal — complete, torn or headerless — untouched for
           :data:`JOURNAL_MAX_AGE_SECONDS` is an abandoned sweep.
           Journal lines do **not** pin result entries against the
           size-cap eviction above: a resumed sweep whose results were
           evicted simply re-simulates those cells;
        5. objects no index entry references are deleted — except
           *intact* orphans younger than :data:`TMP_MAX_AGE_SECONDS`,
           which may be a concurrent writer's object whose index entry
           has not landed yet (``put`` writes the object first); a
           later gc collects them if they stay unreferenced.  Objects
           orphaned by *this* pass's own entry removal are exempt from
           the grace — gc just deleted their entries, so they are
           definitionally not an in-flight write, and a size cap that
           freed no bytes would be useless.

        With ``dry_run`` nothing is deleted; the returned summary shows
        what would happen.  Returns ``{"evicted_entries",
        "deleted_objects", "freed_bytes", "live_bytes", "tmp_removed",
        "journals_removed"}``.
        """
        tmp_removed = 0
        now = time.time()
        # The whole root: objects/, index/, runs/ and the top level
        # (where check_writable probes land if interrupted).
        for base in (self.root,):
            for dirpath, _dirnames, filenames in os.walk(base):
                for name in filenames:
                    if not name.startswith(".tmp-"):
                        continue
                    path = os.path.join(dirpath, name)
                    try:
                        if now - os.path.getmtime(path) < \
                                TMP_MAX_AGE_SECONDS:
                            continue
                    except OSError:
                        continue
                    tmp_removed += 1
                    if not dry_run:
                        try:
                            os.unlink(path)
                        except OSError:
                            pass

        # Re-hash every object (shared with verify, so the two cannot
        # disagree on what counts as corrupt): corrupt ones can never
        # be served and would otherwise pin their index entries red
        # forever, so gc reclaims them.  This makes gc O(store bytes)
        # like verify — stores are modest, and an integrity pass that
        # cannot clean what it finds is worse.
        object_sizes, object_paths, intact, _corrupt, _unreadable = \
            self._classify_objects()

        # Live references, annotated with entry age for LRU eviction.
        # Entries referencing a missing or corrupt object are dropped.
        entries: List[Tuple[float, str, str, str]] = []  # (mtime, kind, fp, oid)
        evicted: List[Tuple[str, str]] = []
        evicted_oids: set = set()
        for kind, fp, entry in self.iter_index():
            path = self._index_path(kind, fp)
            if entry is None or entry["object"] not in intact:
                if entry is None:
                    # get_entry conflates garbage with transient I/O
                    # failure; only confirmed-readable garbage may be
                    # removed (mirrors the unreadable-object grace).
                    try:
                        with open(path, "rb") as fh:
                            fh.read()
                    except OSError:
                        continue
                evicted.append((kind, fp))
                if entry is not None:
                    evicted_oids.add(entry["object"])
                if not dry_run:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                continue
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                mtime = time.time()
            entries.append((mtime, kind, fp, entry["object"]))

        if max_bytes is not None:
            entries.sort()  # oldest first
            alive = entries
            refs: Dict[str, int] = {}
            for _mtime, _kind, _fp, oid in alive:
                refs[oid] = refs.get(oid, 0) + 1
            live_bytes = sum(
                object_sizes.get(oid, 0) for oid in refs
            )
            keep: List[Tuple[float, str, str, str]] = []
            for i, (mtime, kind, fp, oid) in enumerate(alive):
                if live_bytes <= max_bytes:
                    keep.extend(alive[i:])
                    break
                evicted.append((kind, fp))
                evicted_oids.add(oid)
                if not dry_run:
                    try:
                        os.unlink(self._index_path(kind, fp))
                    except OSError:
                        pass
                refs[oid] -= 1
                if refs[oid] == 0:
                    live_bytes -= object_sizes.get(oid, 0)
            entries = keep

        live = {oid for _mtime, _kind, _fp, oid in entries}
        deleted = []
        freed = 0
        for oid, path in object_paths.items():
            if oid in live:
                continue
            if oid in intact and oid not in evicted_oids:
                # A fresh intact orphan may be a racing put() whose
                # index entry is still in flight; corrupt objects can
                # never be (object writes are atomic), and objects this
                # pass itself un-referenced are reclaimed immediately —
                # otherwise a size cap on a recent store frees nothing.
                try:
                    if now - os.path.getmtime(path) < TMP_MAX_AGE_SECONDS:
                        continue
                except OSError:
                    continue
            deleted.append(oid)
            freed += object_sizes.get(oid, 0)
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        journals_removed = 0
        events_removed = 0
        handled_sweeps: set = set()
        journal_age_limit = (
            JOURNAL_MAX_AGE_SECONDS if journal_max_age is None
            else journal_max_age
        )
        for sweep_fp, path in self.iter_journals():
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                handled_sweeps.add(sweep_fp)
                continue
            record = read_journal(path)
            complete = (
                record is not None
                and record["cells"] is not None
                and len(record["done"]) >= record["cells"]
            )
            stale = age > journal_age_limit
            if not ((complete and age > TMP_MAX_AGE_SECONDS) or stale):
                handled_sweeps.add(sweep_fp)
                continue
            journals_removed += 1
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            # The flight recorder rides with its journal: same sweep,
            # same lifetime.  (Counting the sweep as kept stops the
            # orphan loop below from double-counting on a dry run.)
            handled_sweeps.add(sweep_fp)
            events = self.events_path(sweep_fp)
            if os.path.exists(events):
                events_removed += 1
                if not dry_run:
                    try:
                        os.unlink(events)
                    except OSError:
                        pass
        # Orphan recorders (journal long gone, or never written) age out
        # under the same abandoned-sweep rule.
        if os.path.isdir(self.runs_dir):
            for name in sorted(os.listdir(self.runs_dir)):
                if name.startswith(".tmp-") or not name.endswith(".events"):
                    continue
                if name[: -len(".events")] in handled_sweeps:
                    continue
                path = os.path.join(self.runs_dir, name)
                try:
                    if now - os.path.getmtime(path) <= journal_age_limit:
                        continue
                except OSError:
                    continue
                events_removed += 1
                if not dry_run:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
        report = {
            "evicted_entries": len(evicted),
            "deleted_objects": len(deleted),
            "freed_bytes": freed,
            "live_bytes": sum(object_sizes.get(oid, 0) for oid in live),
            "tmp_removed": tmp_removed,
            "journals_removed": journals_removed,
            "events_removed": events_removed,
            "dry_run": dry_run,
        }
        if not dry_run:
            obs.STORE_GC_RUNS.inc()
            for what, count in (
                ("object", len(deleted)), ("entry", len(evicted)),
                ("tmp", tmp_removed), ("journal", journals_removed),
                ("events", events_removed),
            ):
                if count:
                    obs.STORE_GC_REMOVED.inc(count, what=what)
            obs.record_event("gc", root=self.root, **{
                key: value for key, value in report.items()
                if key != "dry_run"
            })
        return report


def default_store_root() -> Optional[str]:
    """The store directory named by ``$REPRO_STORE``, if set."""
    root = os.environ.get(STORE_ENV)
    return root or None
