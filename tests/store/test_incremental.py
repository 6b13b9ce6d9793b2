"""Incremental ``run_matrix``: warm == cold, bit for bit.

The store is a shortcut, never an approximation: a warm run must return
a RunMatrixResult identical to the cold/serial path (all counters, all
stat dicts), skip simulation for cached cells, and fall back to
recomputation — never a wrong result — when the store is damaged.  It
holds results only: images are linked in the process that needs them.
"""

import os

from helpers import result_digest

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import ProgramCache, run_matrix
from repro.isa.trace import TraceRecord
from repro.isa.workloads import ref_trace_seed
from repro.store import ArtifactCache, ArtifactStore, serialize
from repro.store.fingerprint import program_fingerprint

BENCHES = ("gzip",)
KWARGS = dict(widths=(8,), instructions=8_000, warmup=2_000, scale=0.3)
N_CELLS = 1 * 2 * 1 * 4  # bench x layout x width x arch


def matrices_identical(a, b):
    assert list(a.results) == list(b.results)
    for spec in a.results:
        assert result_digest(a.results[spec]) == \
            result_digest(b.results[spec]), spec
    return True


@pytest.fixture(scope="module")
def reference_matrix():
    """The storeless serial path: the ground truth."""
    return run_matrix(BENCHES, **KWARGS)


@pytest.fixture
def counted_run_cell(monkeypatch):
    """Counts actual cell simulations (cache hits bypass _run_cell)."""
    calls = []
    original = runner_mod._run_cell

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "_run_cell", counting)
    return calls


@pytest.fixture
def counted_links(monkeypatch):
    """Counts image links, starting from an empty in-process cache."""
    calls = []
    original = runner_mod.prepare_program

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "prepare_program", counting)
    monkeypatch.setattr(runner_mod, "_WORKER_CACHE", None)
    return calls


class TestColdWarmBitIdentity:
    def test_serial(self, tmp_path, reference_matrix, counted_run_cell):
        store = str(tmp_path / "store")
        cold = run_matrix(BENCHES, **KWARGS, store=store)
        assert matrices_identical(reference_matrix, cold)
        assert len(counted_run_cell) == N_CELLS

        warm = run_matrix(BENCHES, **KWARGS, store=store)
        assert matrices_identical(reference_matrix, warm)
        # Every cell was a cache hit: zero new simulations.
        assert len(counted_run_cell) == N_CELLS

    def test_parallel(self, tmp_path, reference_matrix):
        store = str(tmp_path / "store")
        cold = run_matrix(BENCHES, **KWARGS, store=store, jobs=2)
        assert matrices_identical(reference_matrix, cold)
        warm = run_matrix(BENCHES, **KWARGS, store=store, jobs=2)
        assert matrices_identical(reference_matrix, warm)

    def test_serial_warm_after_parallel_cold(self, tmp_path,
                                             reference_matrix,
                                             counted_run_cell):
        """The two paths share one cache: parallel populates, serial
        hits (and vice versa)."""
        store = str(tmp_path / "store")
        run_matrix(BENCHES, **KWARGS, store=store, jobs=2)
        warm = run_matrix(BENCHES, **KWARGS, store=store)
        assert matrices_identical(reference_matrix, warm)
        assert len(counted_run_cell) == 0

    def test_progress_fires_in_serial_order_when_warm(self, tmp_path,
                                                      reference_matrix):
        store = str(tmp_path / "store")
        run_matrix(BENCHES, **KWARGS, store=store)
        seen = []
        run_matrix(BENCHES, **KWARGS, store=store,
                   progress=lambda r: seen.append((r.engine, r.optimized)))
        expected = [(r.engine, r.optimized)
                    for r in reference_matrix.results.values()]
        assert seen == expected


class TestFingerprintMisses:
    def test_changed_budget_misses(self, tmp_path, counted_run_cell):
        store = str(tmp_path / "store")
        run_matrix(BENCHES, **KWARGS, store=store)
        before = len(counted_run_cell)
        changed = dict(KWARGS, instructions=12_000)
        run_matrix(BENCHES, **changed, store=store)
        assert len(counted_run_cell) == before + N_CELLS

    def test_changed_warmup_misses(self, tmp_path, counted_run_cell):
        store = str(tmp_path / "store")
        run_matrix(BENCHES, **KWARGS, store=store)
        before = len(counted_run_cell)
        changed = dict(KWARGS, warmup=3_000)
        run_matrix(BENCHES, **changed, store=store)
        assert len(counted_run_cell) == before + N_CELLS

    def test_changed_scale_misses(self, tmp_path, counted_run_cell):
        store = str(tmp_path / "store")
        run_matrix(BENCHES, **KWARGS, store=store)
        before = len(counted_run_cell)
        changed = dict(KWARGS, scale=0.4)
        run_matrix(BENCHES, **changed, store=store)
        assert len(counted_run_cell) == before + N_CELLS

    def test_subset_hits(self, tmp_path, reference_matrix, counted_run_cell):
        """A narrower matrix over the same cells is all hits."""
        store = str(tmp_path / "store")
        run_matrix(BENCHES, **KWARGS, store=store)
        before = len(counted_run_cell)
        sub = run_matrix(BENCHES, archs=("stream",), **KWARGS, store=store)
        assert len(counted_run_cell) == before
        for spec, result in sub.results.items():
            assert result_digest(result) == \
                result_digest(reference_matrix.results[spec])


class TestCorruptionFallback:
    def test_corrupt_result_recomputes_correctly(self, tmp_path,
                                                 reference_matrix,
                                                 counted_run_cell):
        store_root = str(tmp_path / "store")
        run_matrix(BENCHES, **KWARGS, store=store_root)
        before = len(counted_run_cell)
        # Truncate every result entry.
        store = ArtifactStore(store_root)
        for kind, fp, _entry in store.iter_index():
            if kind != "result":
                continue
            with open(store._entry_path(kind, fp), "wb") as fh:
                fh.write(b"truncated")
        warm = run_matrix(BENCHES, **KWARGS, store=store_root)
        assert matrices_identical(reference_matrix, warm)
        assert len(counted_run_cell) == before + N_CELLS


class TestTraceArtifacts:
    def test_loaded_trace_extends_bit_identically(self, gzip_programs):
        """A record loaded from serialized state and extended past its
        saved end must match a cold walk block for block."""
        _, program = gzip_programs
        seed = ref_trace_seed("gzip")
        cold = TraceRecord(program, seed)
        for _ in range(4):
            cold.extend()

        partial = TraceRecord(
            serialize.load_program(serialize.dump_program(program)), seed
        )
        partial.extend()
        data = serialize.dump_trace(partial)
        fresh_image = serialize.load_program(serialize.dump_program(program))
        loaded = serialize.load_trace(data, fresh_image, seed)
        for _ in range(3):
            loaded.extend()

        assert len(cold.blocks) == len(loaded.blocks)
        for a, b in zip(cold.blocks, loaded.blocks):
            assert (a.addr, a.taken, a.next_addr) == \
                (b.addr, b.taken, b.next_addr)

    def test_wrong_seed_rejected(self, gzip_programs):
        _, program = gzip_programs
        record = TraceRecord(program, 123)
        record.extend()
        data = serialize.dump_trace(record)
        with pytest.raises(serialize.ArtifactDecodeError):
            serialize.load_trace(data, program, 456)

class TestWriteDegradation:
    def test_unencodable_meta_warns_and_continues(self, tmp_path, capsys):
        """Store writes may never abort a run: an unencodable artifact
        or meta degrades to 'not cached' with a warning."""
        from repro.core.results import SimulationResult
        cache = ArtifactCache(str(tmp_path / "store"))
        result = SimulationResult(benchmark="b", engine="e", width=8,
                                  optimized=True, cycles=10, instructions=20)
        cache.put_result("ab" * 32, result, meta={"bad": {1, 2}})  # no raise
        assert "will not be cached" in capsys.readouterr().err
        assert cache.store.get_entry("result", "ab" * 32) is None

    def test_readonly_store_warns_once(self, tmp_path, capsys):
        import os
        import stat
        root = tmp_path / "ro"
        root.mkdir()
        os.chmod(root, stat.S_IRUSR | stat.S_IXUSR)
        if os.access(str(root / "x"), os.W_OK) or os.geteuid() == 0:
            os.chmod(root, stat.S_IRWXU)
            pytest.skip("running as root; chmod cannot make dir read-only")
        from repro.core.results import SimulationResult
        cache = ArtifactCache(str(root))
        result = SimulationResult(benchmark="b", engine="e", width=8,
                                  optimized=True, cycles=10, instructions=20)
        try:
            cache.put_result("ab" * 32, result)
            cache.put_result("cd" * 32, result)
        finally:
            os.chmod(root, stat.S_IRWXU)
        assert capsys.readouterr().err.count("will not be cached") == 1


class TestProgramCacheKeying:
    def test_keyed_on_full_fingerprint(self):
        cache = ProgramCache()
        a = cache.get("gzip", True, 0.3)
        assert cache.get("gzip", True, 0.3) is a
        assert cache._cache[program_fingerprint("gzip", True, 0.3)] is a
        b = cache.get("gzip", True, 0.35)
        assert b is not a


class TestResultsOnly:
    """The store holds results only; images live in the linking process."""

    def test_cold_stores_results_warm_links_nothing(
            self, tmp_path, reference_matrix, counted_run_cell,
            counted_links, monkeypatch):
        store = str(tmp_path / "store")
        cold = run_matrix(BENCHES, **KWARGS, store=store)
        assert matrices_identical(reference_matrix, cold)
        kinds = {kind for kind, _fp, _e in ArtifactStore(store).iter_index()}
        assert kinds == {"result"}
        assert len(counted_links) == 2  # one per (benchmark, layout) image
        # A fresh process: every cell is a hit, so nothing is linked.
        monkeypatch.setattr(runner_mod, "_WORKER_CACHE", None)
        warm = run_matrix(BENCHES, **KWARGS, store=store)
        assert matrices_identical(reference_matrix, warm)
        assert len(counted_links) == 2
        assert len(counted_run_cell) == N_CELLS

    def test_partially_warm_rerun_relinks_bit_identically(
            self, tmp_path, counted_run_cell, counted_links, monkeypatch):
        store = str(tmp_path / "store")
        run_matrix(BENCHES, **KWARGS, store=store)
        wider = dict(KWARGS, widths=(4, 8))
        monkeypatch.setattr(runner_mod, "_WORKER_CACHE", None)
        reference = run_matrix(BENCHES, **wider)
        # A fresh process adds width 4: only its cells simulate, and
        # both images are linked again to run them.
        monkeypatch.setattr(runner_mod, "_WORKER_CACHE", None)
        links, cells = len(counted_links), len(counted_run_cell)
        partial = run_matrix(BENCHES, **wider, store=store)
        assert matrices_identical(reference, partial)
        assert len(counted_links) - links == 2
        assert len(counted_run_cell) - cells == N_CELLS

    def test_forked_workers_never_open_the_store(
            self, tmp_path, reference_matrix, monkeypatch):
        """Pool workers start with no store attached: the parent
        stores every result as it settles, and nothing else."""
        puts = tmp_path / "puts.log"
        cells = tmp_path / "cells.log"
        put = ArtifactStore.put
        run_cell = runner_mod._run_cell

        def logged_put(self, kind, fp, data, meta=None):
            with open(puts, "a") as fh:
                fh.write(f"{os.getpid()} {kind}\n")
            return put(self, kind, fp, data, meta)

        def logged_run_cell(*args, **kwargs):
            with open(cells, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return run_cell(*args, **kwargs)

        # Patched before the pool forks, so workers inherit both.
        monkeypatch.setattr(ArtifactStore, "put", logged_put)
        monkeypatch.setattr(runner_mod, "_run_cell", logged_run_cell)
        out = run_matrix(BENCHES, **KWARGS, store=str(tmp_path / "store"),
                         jobs=2)
        assert matrices_identical(reference_matrix, out)
        parent = str(os.getpid())
        assert parent not in cells.read_text().split()
        writes = [line.split() for line in puts.read_text().splitlines()]
        assert writes == [[parent, "result"]] * N_CELLS
