"""Store integrity under injected faults: torn writes degrade to clean
misses, unwritable stores degrade to storeless runs."""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings

import pytest

from repro.exec import FaultSpec, faults
from repro.exec.faults import FAULTS_ENV, encode_plan
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


def _run_killed_put(root: str, match: str) -> None:
    child = multiprocessing.get_context("fork").Process(
        target=_put_child,
        args=(root, encode_plan(FaultSpec("store_kill", match=match))),
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == -9


@pytest.mark.faults(timeout=120)
def test_sigkill_before_object_replace_is_a_clean_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    _run_killed_put(str(tmp_path), ":object")
    # Neither the object nor the index landed: a miss, not a torn hit.
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
    _run_killed_put(str(tmp_path), ":index")
    # The object landed but the key never did: still a clean miss.
    assert store.get_entry("result", FP) is None
    assert store.get("result", FP) is None
    store.put("result", FP, b"payload", meta={"k": 1})
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
