"""Documented entry points run: examples exit 0 as written."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)


@pytest.mark.parametrize("script", ["quickstart.py", "serve_client.py"])
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
