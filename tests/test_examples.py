"""Documented entry points run: examples exit 0 as written."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)


@pytest.mark.parametrize(
    "script", ["quickstart.py", "serve_client.py", "cached_matrix.py"])
def test_example_runs(script, tmp_path):
    # cached_matrix.py takes its store directory: keep it out of the repo.
    args = [str(tmp_path / "store")] if script == "cached_matrix.py" else []
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
