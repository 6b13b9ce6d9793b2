"""CLI surface: ``--store`` on matrix commands, the ``cache`` subcommand."""

import os

import pytest

from repro.experiments.cli import main
from repro.store.store import ArtifactStore

ARGS = ["--benchmarks", "gzip", "--instructions", "3000",
        "--scale", "0.3", "--quiet"]


class TestStoreFlag:
    def test_fig9_warm_rerun_identical_output(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["fig9", *ARGS, "--store", store]) == 0
        cold_out = capsys.readouterr().out
        assert main(["fig9", *ARGS, "--store", store]) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out
        stats = ArtifactStore(store).stats()
        assert stats["kinds"]["result"]["entries"] == 4
        assert set(stats["kinds"]) == {"result"}

    def test_env_default(self, tmp_path, monkeypatch, capsys):
        store = str(tmp_path / "envstore")
        monkeypatch.setenv("REPRO_STORE", store)
        assert main(["fig9", *ARGS]) == 0
        capsys.readouterr()
        assert os.path.isdir(store)
        assert ArtifactStore(store).stats()["kinds"]["result"]["entries"] == 4

    def test_no_store_by_default(self, tmp_path, capsys):
        # REPRO_STORE is cleared by the suite-wide fixture: without the
        # flag nothing may be written anywhere.
        assert main(["fig9", *ARGS]) == 0
        capsys.readouterr()

    def test_ignored_by_serial_sweeps(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["ablations", "--benchmark", "gzip", "--instructions",
                     "2000", "--scale", "0.3", "--quiet",
                     "--store", store]) == 0
        err = capsys.readouterr().err
        assert "--store is ignored" in err
        assert not os.path.exists(store)

    def test_profile_warns_on_explicit_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["fig9", "--benchmarks", "gzip", "--instructions",
                     "1500", "--scale", "0.3", "--profile", "stream",
                     "--store", store]) == 0
        assert "--store is ignored by --profile" in capsys.readouterr().err
        assert not os.path.exists(store)

    def test_env_store_does_not_warn_serial_sweeps(self, tmp_path,
                                                   monkeypatch, capsys):
        """$REPRO_STORE in the environment is not an explicit request;
        table1/ablations must not nag about it."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        assert main(["ablations", "--benchmark", "gzip", "--instructions",
                     "2000", "--scale", "0.3", "--quiet"]) == 0
        assert "--store is ignored" not in capsys.readouterr().err


class TestCacheSubcommand:
    @pytest.fixture
    def populated(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["fig9", *ARGS, "--store", store])
        capsys.readouterr()
        return store

    def test_requires_store(self, capsys):
        assert main(["cache", "stats"]) == 2
        assert "no store configured" in capsys.readouterr().err

    def test_stats(self, populated, capsys):
        assert main(["cache", "stats", "--store", populated]) == 0
        out = capsys.readouterr().out
        assert "result" in out and "objects" in out
        # Rows are the kinds present, not a fixed list.
        assert "program" not in out and "trace" not in out

    def test_verify_clean(self, populated, capsys):
        assert main(["cache", "verify", "--store", populated]) == 0
        assert "store is clean" in capsys.readouterr().out

    def test_verify_detects_corruption(self, populated, capsys):
        store = ArtifactStore(populated)
        oid, path = next(iter(store.iter_objects()))
        with open(path, "wb") as fh:
            fh.write(b"bad")
        assert main(["cache", "verify", "--store", populated]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_gc_noop_on_clean_store(self, populated, capsys):
        assert main(["cache", "gc", "--store", populated]) == 0
        assert "deleted 0 objects" in capsys.readouterr().out

    def test_gc_size_cap_then_recompute(self, populated, capsys):
        """Evicting everything is safe: the next run just goes cold."""
        assert main(["cache", "gc", "--store", populated,
                     "--max-bytes", "0"]) == 0
        capsys.readouterr()
        stats = ArtifactStore(populated).stats()
        assert stats["kinds"] == {}  # every entry evicted -> all keys cold
        assert stats["objects"] == 0  # ...and their objects reclaimed
        assert main(["fig9", *ARGS, "--store", populated]) == 0
        capsys.readouterr()
        assert ArtifactStore(populated).stats()[
            "kinds"]["result"]["entries"] == 4

    @pytest.fixture
    def with_old_kinds(self, populated):
        """``populated`` plus program and trace entries, as an older
        checkout wrote them: never read now, but every ``cache`` action
        still handles them like any other kind."""
        store = ArtifactStore(populated)
        store.put("program", "ab" * 32, b"an old image",
                  meta={"benchmark": "gzip"})
        store.put("trace", "cd" * 32, b"an old trace",
                  meta={"seed": 1, "n_blocks": 3})
        return populated

    def test_old_kinds_listed_verified_and_evicted(self, with_old_kinds,
                                                   capsys):
        assert main(["cache", "stats", "--store", with_old_kinds]) == 0
        out = capsys.readouterr().out
        assert all(kind in out for kind in ("program", "trace", "result"))
        assert main(["cache", "verify", "--store", with_old_kinds]) == 0
        assert "store is clean" in capsys.readouterr().out
        assert main(["cache", "gc", "--store", with_old_kinds,
                     "--max-bytes", "0"]) == 0
        capsys.readouterr()
        stats = ArtifactStore(with_old_kinds).stats()
        assert stats["kinds"] == {} and stats["objects"] == 0

    def test_old_kinds_synced_and_cross_checked(self, with_old_kinds,
                                                tmp_path, capsys):
        from repro.serve.server import ExperimentServer

        peer_root = str(tmp_path / "peer")
        server = ExperimentServer(store_root=peer_root, max_workers=1)
        server.start()
        try:
            host, port = server.address
            address = f"{host}:{port}"
            assert main(["cache", "sync", address,
                         "--store", with_old_kinds]) == 0
            ours = {(kind, fp) for kind, fp, _e
                    in ArtifactStore(with_old_kinds).iter_index()}
            theirs = {(kind, fp) for kind, fp, _e
                      in ArtifactStore(peer_root).iter_index()}
            assert theirs == ours
            capsys.readouterr()
            assert main(["cache", "verify", "--store", with_old_kinds,
                         "--peers", address]) == 0
            out = capsys.readouterr().out
            for kind, shared in (("program", 1), ("result", 4),
                                 ("trace", 1)):
                assert (f"{kind}: {shared} shared fingerprints checked, "
                        f"0 mismatched") in out
            assert main(["cache", "stats", "--store", with_old_kinds,
                         "--peers", address]) == 0
            assert "result 4" in capsys.readouterr().out
        finally:
            server.stop(timeout=30)

    def test_gc_journal_days_overrides_30_day_rule(self, populated,
                                                   capsys, monkeypatch):
        """``--journal-days N`` prunes abandoned journals younger than
        the hardcoded 30-day default (and 0 prunes immediately)."""
        import time

        from repro.exec.journal import SweepJournal

        store = ArtifactStore(populated)
        # An incomplete (abandoned) sweep journal: 1 of 5 cells done.
        journal = SweepJournal(store, "f" * 64, cells=5)
        journal.append("a" * 64)
        path = store.journal_path("f" * 64)
        # Age it two days: the default 30-day rule must keep it...
        two_days_ago = time.time() - 2 * 86400
        os.utime(path, (two_days_ago, two_days_ago))
        assert main(["cache", "gc", "--store", populated]) == 0
        assert "0 sweep journals" in capsys.readouterr().out
        assert os.path.exists(path)
        # ...a --journal-days 1 override prunes it.
        assert main(["cache", "gc", "--store", populated,
                     "--journal-days", "1"]) == 0
        assert "1 sweep journals" in capsys.readouterr().out
        assert not os.path.exists(path)
