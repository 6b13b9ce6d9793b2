"""The benchmark's tracer still finds every function it wraps.

``perfbench/selftest.py`` patches named functions in ``src/`` (the
pools' ``run``, ``run_matrix``, the fingerprint and store helpers) and
checks that each span fires; a rename in ``src/`` fails it.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "perfbench", "selftest.py")],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
