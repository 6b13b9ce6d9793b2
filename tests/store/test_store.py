"""ArtifactStore: round trips, corruption tolerance, gc, concurrency."""

import hashlib
import json
import multiprocessing
import os

import pytest

from repro.store.store import ArtifactStore

FP = "ab" * 32


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


class TestRoundTrip:
    def test_put_get(self, store):
        oid = store.put("result", FP, b"payload", meta={"n": 1})
        assert store.get("result", FP) == b"payload"
        assert store.get_entry("result", FP)["meta"] == {"n": 1}
        assert oid == hashlib.sha256(b"payload").hexdigest()
        assert store.read("result", FP) == (
            {"meta": {"n": 1}, "oid": oid, "size": 7}, b"payload")

    def test_missing_is_none(self, store):
        assert store.get("result", FP) is None
        assert store.get_entry("result", FP) is None
        assert store.read("result", FP) is None

    def test_kinds_are_namespaced(self, store):
        store.put("result", FP, b"a")
        assert store.get("trace", FP) is None

    def test_rewrite_wins(self, store):
        store.put("result", FP, b"old")
        store.put("result", FP, b"new")
        assert store.get("result", FP) == b"new"

    def test_entry_is_one_file(self, store):
        """One file per key: a JSON header line, then the payload."""
        store.put("result", FP, b"two\nlines", meta={"n": 1})
        assert os.listdir(store.root) == ["entries"]
        path = os.path.join(store.root, "entries", "result", FP)
        with open(path, "rb") as fh:
            header, payload = fh.read().split(b"\n", 1)
        assert payload == b"two\nlines"
        assert json.loads(header) == {
            "meta": {"n": 1}, "size": 9,
            "oid": hashlib.sha256(b"two\nlines").hexdigest()}

    @pytest.mark.parametrize("kind, fp", [
        ("../x", FP), ("..", FP), ("", FP), ("Result", FP), ("a/b", FP),
        ("result", "../x"), ("result", "AB" * 32), ("result", "ab" * 31),
        ("result", FP + "\n"), ("result", ""),
    ])
    def test_bad_keys_are_refused(self, store, kind, fp):
        """Only plain lowercase kinds and 64-digit hex fingerprints
        name entries, so no key reaches outside the store."""
        for call in (lambda: store.put(kind, fp, b"x"),
                     lambda: store.read(kind, fp),
                     lambda: store.get(kind, fp),
                     lambda: store.get_entry(kind, fp)):
            with pytest.raises(ValueError):
                call()
        assert not os.path.exists(store.root)


class TestCorruption:
    def _entry_path(self, store, kind="result", fp=FP):
        return store._entry_path(kind, fp)

    def test_truncated_object_is_a_miss(self, store):
        store.put("result", FP, b"x" * 1000)
        path = self._entry_path(store)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:500])
        assert store.get("result", FP) is None

    def test_tampered_object_is_a_miss(self, store):
        store.put("result", FP, b"x" * 100)
        path = self._entry_path(store)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"Y")
        assert store.get("result", FP) is None

    def test_garbage_index_entry_is_a_miss(self, store):
        store.put("result", FP, b"x")
        with open(self._entry_path(store), "w") as fh:
            fh.write("{not json\nx")
        assert store.get("result", FP) is None
        assert store.get_entry("result", FP) is None

    def test_malformed_entry_fields_are_bad_entries(self, store):
        """A parseable header with wrong field types, or a size that
        does not match the payload, degrades to a miss (and a
        bad_entries count), never a crash downstream."""
        store.put("result", FP, b"x", meta={"n_blocks": 3})
        path = self._entry_path(store)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        for field, value in (("size", None), ("size", "big"), ("size", 2),
                             ("meta", None), ("oid", 7)):
            bad = dict(header, **{field: value})
            with open(path, "wb") as fh:
                fh.write(json.dumps(bad).encode() + b"\nx")
            assert store.get_entry("result", FP) is None, (field, value)
            assert store.get("result", FP) is None
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode())  # no payload line
        assert store.read("result", FP) is None
        assert store.stats()["bad_entries"] == 1

    def test_verify_reports_corruption(self, store):
        store.put("result", FP, b"x" * 1000)
        store.put("trace", "cd" * 32, b"y" * 1000)
        with open(self._entry_path(store), "wb") as fh:
            fh.write(b"trunc")
        report = store.verify()
        assert report["checked"] == 2
        assert report["corrupt"] == [("result", FP)]
        assert report["unreadable"] == []

    def test_put_heals_corrupt_object(self, store):
        """Recomputation after a corrupt hit must repair the entry,
        not leave a permanently-missing key behind."""
        store.put("result", FP, b"x" * 1000)
        with open(self._entry_path(store), "wb") as fh:
            fh.write(b"rotten")
        assert store.get("result", FP) is None  # miss -> caller recomputes
        store.put("result", FP, b"x" * 1000)    # ...and re-stores
        assert store.get("result", FP) == b"x" * 1000
        assert store.verify()["corrupt"] == []

    def test_verify_clean_store(self, store):
        store.put("result", FP, b"x")
        report = store.verify()
        assert report == {"checked": 1, "corrupt": [], "unreadable": []}


class TestGc:
    def test_dry_run_deletes_nothing(self, store):
        store.put("result", FP, b"x" * 10)
        store.put("trace", FP, b"y")
        with open(store._entry_path("trace", FP), "wb") as fh:
            fh.write(b"rotten")
        report = store.gc(max_bytes=0, dry_run=True)
        assert report["evicted_entries"] == 2
        assert report["freed_bytes"] == 10
        assert store.get("result", FP) == b"x" * 10
        assert os.path.exists(store._entry_path("trace", FP))

    def test_size_cap_evicts_oldest_first(self, store):
        for i in range(4):
            fp = f"{i:02d}" * 32
            store.put("result", fp, bytes([i]) * 1000)
            # Order eviction by entry mtime, oldest first.
            os.utime(store._entry_path("result", fp), (i, i))
        report = store.gc(max_bytes=2000)
        assert report["evicted_entries"] == 2
        # The cap counts payload bytes, not header bytes.
        assert report["freed_bytes"] == 2000
        assert store.get("result", "00" * 32) is None
        assert store.get("result", "01" * 32) is None
        assert store.get("result", "03" * 32) is not None
        assert report["live_bytes"] == 2000

    def test_gc_reclaims_corrupt_objects_and_entries(self, store):
        """After gc, a store that verify flagged comes back clean: the
        corrupt entry is deleted (its key goes cold), intact keys are
        untouched."""
        store.put("result", FP, b"keep" * 100)
        store.put("trace", "cd" * 32, b"rot" * 100)
        with open(store._entry_path("trace", "cd" * 32), "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"!")
        assert len(store.verify()["corrupt"]) == 1
        assert store.gc()["evicted_entries"] == 1
        assert store.verify()["corrupt"] == []
        assert store.get("trace", "cd" * 32) is None  # cold, not wrong
        assert store.get("result", FP) == b"keep" * 100

    def test_unreadable_entries_removed(self, store):
        """Garbage is deleted; an entry that cannot be read at all is
        kept (the error may be transient) and reported by verify."""
        os.makedirs(os.path.join(store.entries_dir, "result"))
        with open(store._entry_path("result", FP), "w") as fh:
            fh.write("garbage")
        unreadable = store._entry_path("result", "cd" * 32)
        os.mkdir(unreadable)  # opening it for reading fails
        store.gc()
        assert not os.path.exists(store._entry_path("result", FP))
        assert os.path.isdir(unreadable)
        assert store.verify()["unreadable"] == [("result", "cd" * 32)]

    def test_stale_tmp_files_removed(self, store):
        store.put("result", FP, b"x")
        stray = os.path.join(store.entries_dir, "result", ".tmp-dead")
        with open(stray, "w") as fh:
            fh.write("partial")
        os.utime(stray, (1, 1))  # long-interrupted write
        report = store.gc()
        assert report["tmp_removed"] == 1
        assert not os.path.exists(stray)

    def test_fresh_tmp_files_survive(self, store):
        """A young temp file may be a concurrent run's in-flight
        atomic write; gc must leave it alone."""
        store.put("result", FP, b"x")
        inflight = os.path.join(store.entries_dir, "result", ".tmp-live")
        with open(inflight, "w") as fh:
            fh.write("partial")
        report = store.gc()
        assert report["tmp_removed"] == 0
        assert os.path.exists(inflight)


def _racing_writer(args):
    root, fp, payload = args
    store = ArtifactStore(root)
    for _ in range(20):
        store.put("trace", fp, payload)
    return True


class TestConcurrentWriters:
    def test_one_complete_write_wins(self, store):
        """Racing writers on one key: every read afterwards sees one
        complete, hash-consistent entry — never a torn write."""
        payloads = [bytes([i]) * 4096 for i in range(4)]
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        with ctx.Pool(4) as pool:
            results = pool.map(
                _racing_writer,
                [(store.root, FP, payload) for payload in payloads],
            )
        assert all(results)
        data = store.get("trace", FP)
        assert data in payloads
        assert store.verify() == {"checked": 1, "corrupt": [],
                                  "unreadable": []}

    def test_stats_counts(self, store):
        store.put("program", FP, b"p" * 10)
        store.put("result", "cd" * 32, b"r" * 20)
        stats = store.stats()
        assert stats["kinds"]["program"]["entries"] == 1
        assert stats["kinds"]["result"] == {"entries": 1, "bytes": 20}
        assert stats["bad_entries"] == 0
