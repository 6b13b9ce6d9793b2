"""Store integrity under injected faults: torn writes degrade to clean
misses, unwritable stores degrade to storeless runs, and write errors
cost caching, never results."""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings

import pytest
from helpers import DRILL_MATRIX

from repro.exec import FaultPolicy, FaultSpec, faults
from repro.exec.faults import FAULTS_ENV, active_plan, encode_plan
from repro.experiments.runner import run_matrix
from repro.store.store import ArtifactStore

KW = dict(
    benchmarks=("gzip",),
    widths=(8,),
    archs=("stream", "ev8"),
    layouts=(True,),
    instructions=5000,
    warmup=1000,
    scale=0.3,
)
FP = "ab" * 32


def _put_child(root: str, plan: str) -> None:
    os.environ[FAULTS_ENV] = plan
    faults.refresh()
    ArtifactStore(root).put("result", FP, b"payload", meta={"k": 1})


def _run_killed_put(root: str) -> None:
    """Fork a ``put`` of ``FP`` that is SIGKILLed before its replace."""
    child = multiprocessing.get_context("fork").Process(
        target=_put_child,
        args=(root, encode_plan(
            FaultSpec("store_kill", match=f"result/{FP}"))),
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == -9


# The entry file is both the payload object and the key's index record,
# so both drills kill the one replace of a put and check the two views.
@pytest.mark.faults(timeout=120)
def test_sigkill_before_object_replace_is_a_clean_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    _run_killed_put(str(tmp_path))
    # The payload never landed: a miss, not a torn hit.
    assert store.get_entry("result", FP) is None
    assert store.get("result", FP) is None
    # The stranded temp file is swept by gc once past the writer grace.
    tmp_files = [
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(str(tmp_path))
        for name in names if name.startswith(".tmp-")
    ]
    assert len(tmp_files) == 1
    old = time.time() - 7200
    os.utime(tmp_files[0], (old, old))
    assert store.gc()["tmp_removed"] == 1
    # The recompute path heals the store.
    store.put("result", FP, b"payload", meta={"k": 1})
    assert store.get("result", FP) == b"payload"


@pytest.mark.faults(timeout=120)
def test_sigkill_before_index_replace_is_a_clean_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    _run_killed_put(str(tmp_path))
    # The key never entered the index: the stranded temp file is neither
    # listed nor counted as a corrupt entry.
    assert list(store.iter_index()) == []
    assert store.stats()["bad_entries"] == 0
    assert store.verify() == {"checked": 0, "corrupt": [],
                              "unreadable": []}
    assert store.get("result", FP) is None
    store.put("result", FP, b"payload", meta={"k": 1})
    assert [(kind, fp) for kind, fp, _ in store.iter_index()] == [
        ("result", FP)]
    assert store.get("result", FP) == b"payload"


def test_unwritable_store_warns_once_and_runs_storeless(tmp_path):
    baseline = run_matrix(**KW)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    root = str(blocker / "store")  # mkdir fails under a regular file

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run_matrix(**KW, store=root)
    assert got.results == baseline.results
    warned = [w for w in caught if "not writable" in str(w.message)]
    assert len(warned) == 1
    assert issubclass(warned[0].category, RuntimeWarning)

    # Same root again: already warned, silently storeless.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = run_matrix(**KW, store=root)
    assert again.results == baseline.results
    assert [w for w in caught if "not writable" in str(w.message)] == []


@pytest.mark.faults(timeout=120)
def test_store_io_errors_cost_caching_not_results(tmp_path, drill_baseline):
    with active_plan(FaultSpec("store_err", match="result", times=2)):
        got = run_matrix(**DRILL_MATRIX, store=str(tmp_path),
                         fault_policy=FaultPolicy(retries=2, backoff=0.0))
    assert got.results == drill_baseline.results
    # Both result writes failed: nothing was cached.
    assert list(ArtifactStore(str(tmp_path)).iter_index()) == []
