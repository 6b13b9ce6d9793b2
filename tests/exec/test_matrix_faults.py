"""run_matrix under injected faults: bit-identical results, resume.

The acceptance bar for the resilience subsystem: every fault class the
harness can inject (worker SIGKILL, hang + deadline, transient
exceptions, SIGKILL mid-sweep) must leave ``run_matrix`` returning the
exact results of a fault-free run, and an interrupted store-backed
sweep must resume by re-simulating only its missing cells.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings

import pytest

from repro import obs
from repro.exec import FaultPolicy, FaultSpec, SweepError, faults
from repro.exec.faults import FAULTS_ENV, active_plan, encode_plan
from repro.experiments.runner import run_matrix
from repro.store.cache import ArtifactCache
from repro.store.store import read_journal

KW = dict(
    benchmarks=("gzip",),
    widths=(8,),
    archs=("stream", "ev8"),
    layouts=(True,),
    instructions=5000,
    warmup=1000,
    scale=0.3,
)
FAST = FaultPolicy(retries=2, backoff=0.0)


@pytest.fixture(scope="module")
def baseline():
    return run_matrix(**KW)


@pytest.mark.faults(timeout=300)
def test_worker_sigkill_bit_identical(baseline):
    with active_plan(FaultSpec("kill", match="ev8", times=1)):
        got = run_matrix(**KW, jobs=2, fault_policy=FAST)
    assert got.results == baseline.results


@pytest.mark.faults(timeout=300)
def test_hang_deadline_bit_identical(baseline):
    # The healthy cells finish in a fraction of the 2 s deadline; the
    # hung one is killed exactly once, not waited out.
    policy = FaultPolicy(timeout=2.0, retries=2, backoff=0.0)
    timeouts = obs.EXEC_TIMEOUTS.value()
    with active_plan(FaultSpec("hang", match="ev8", times=1, seconds=120)):
        got = run_matrix(**KW, jobs=2, fault_policy=policy)
    assert got.results == baseline.results
    assert obs.EXEC_TIMEOUTS.value() - timeouts == 1


@pytest.mark.faults(timeout=300)
def test_transient_exceptions_bit_identical(baseline):
    with active_plan(FaultSpec("exc", match="ev8", times=2)):
        got = run_matrix(**KW, fault_policy=FAST)
    assert got.results == baseline.results


@pytest.mark.faults(timeout=300)
def test_failing_accel_cell_falls_back_once(baseline):
    # Two primary attempts (retries=1) are injected to fail; the final
    # fallback attempt runs the cell under the interpreter and must
    # still produce the bit-identical result.
    policy = FaultPolicy(retries=1, backoff=0.0)
    with active_plan(FaultSpec("exc", match="ev8", times=2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_matrix(**KW, fault_policy=policy)
    assert got.results == baseline.results
    fallback = [w for w in caught
                if "fallback arguments" in str(w.message)]
    assert len(fallback) == 1


@pytest.mark.faults(timeout=300)
def test_sweep_error_names_cells_and_resume_reuses_survivors(
    tmp_path, baseline
):
    cache = ArtifactCache(str(tmp_path))
    with active_plan(FaultSpec("exc", match="ev8", times=10)):
        with pytest.raises(SweepError) as excinfo, \
                warnings.catch_warnings():
            # The doomed cell legitimately announces its (also doomed)
            # accel->interp fallback attempt on the way down.
            warnings.simplefilter("ignore", RuntimeWarning)
            run_matrix(**KW, store=cache,
                       fault_policy=FaultPolicy(retries=1, backoff=0.0))
    err = excinfo.value
    assert err.completed == 1
    assert len(err.failures) == 1
    assert "ev8" in str(err)
    (key,) = err.failures
    assert key.arch == "ev8"
    assert len(err.failures[key]) == 3  # 2 primary attempts + fallback

    # The stream cell settled before the sweep failed and was persisted:
    # the re-run serves it from the store and simulates only ev8.
    cache2 = ArtifactCache(str(tmp_path))
    got = run_matrix(**KW, store=cache2, resume=True)
    assert got.results == baseline.results
    assert cache2.hits["result"] == 1
    assert cache2.misses["result"] == 1


def _killed_sweep_child(root: str) -> None:
    # after=1 lets the first cell's result (one entry write) land, then
    # SIGKILLs this process between the second result's temp write and
    # its atomic replace — the torn-write worst case.
    os.environ[FAULTS_ENV] = encode_plan(
        FaultSpec("store_kill", match="result", after=1)
    )
    faults.refresh()
    run_matrix(**KW, store=root)


@pytest.mark.faults(timeout=300)
def test_sigkill_mid_sweep_then_resume_runs_only_missing_cells(
    tmp_path, baseline
):
    root = str(tmp_path)
    child = multiprocessing.get_context("fork").Process(
        target=_killed_sweep_child, args=(root,)
    )
    child.start()
    child.join(timeout=240)
    assert child.exitcode == -9

    # One cell was journaled before the kill.
    cache = ArtifactCache(root)
    journals = list(cache.store.iter_journals())
    assert len(journals) == 1
    record = read_journal(journals[0][1])
    assert record["cells"] == 2
    assert len(record["done"]) == 1

    # Resume: the survivor is a store hit, the torn cell a clean miss.
    got = run_matrix(**KW, store=cache, resume=True)
    assert got.results == baseline.results
    assert cache.hits["result"] == 1
    assert cache.misses["result"] == 1
    record = read_journal(journals[0][1])
    assert len(record["done"]) == 2


def test_journal_records_completed_sweep(tmp_path, capfd, baseline):
    cache = ArtifactCache(str(tmp_path))
    got = run_matrix(**KW, store=cache)
    assert got.results == baseline.results
    ((sweep_fp, path),) = cache.store.iter_journals()
    record = read_journal(path)
    assert record["sweep"] == sweep_fp
    assert record["cells"] == 2
    assert len(record["done"]) == 2

    capfd.readouterr()
    again = run_matrix(**KW, store=str(tmp_path), resume=True)
    assert again.results == baseline.results
    err = capfd.readouterr().err
    assert f"resume: sweep {sweep_fp[:12]}" in err
    assert "2/2" in err
    # No duplicate journal lines from the resumed run.
    assert len(read_journal(path)["done"]) == 2
