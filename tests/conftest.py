"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from helpers import DRILL_MATRIX, build_tiny_cfg  # noqa: E402

from repro.common.params import default_machine  # noqa: E402
from repro.exec import faults as _faults  # noqa: E402
from repro.experiments.runner import run_matrix  # noqa: E402
from repro.isa.layout import natural_order  # noqa: E402
from repro.isa.program import link  # noqa: E402
from repro.isa.workloads import prepare_program  # noqa: E402
from repro.memory.hierarchy import MemoryHierarchy  # noqa: E402
from repro.serve.__main__ import _Daemon  # noqa: E402


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "faults(timeout=N): fault-injection test; enforced with a "
        "SIGALRM watchdog (default 120s) so an injected hang that "
        "escapes its in-test deadline cannot wedge the whole suite",
    )


@pytest.fixture(autouse=True)
def _isolated_artifact_store(monkeypatch):
    """Tier-1 tests must never read or write a user's artifact store.

    Store-aware code paths only engage when a store is passed
    explicitly; clearing ``REPRO_STORE`` guarantees the CLI's env
    default cannot point tests at ``~``-level state.  Tests that want a
    store use ``tmp_path``.
    """
    monkeypatch.delenv("REPRO_STORE", raising=False)
    # Nor at anyone's live store *peers*: federated read-through must
    # be something a test sets up explicitly.
    monkeypatch.delenv("REPRO_STORE_PEERS", raising=False)
    # Observability runs at its default (recording enabled) regardless
    # of the invoking shell; tests that pin a state set ``REPRO_OBS``
    # themselves.
    monkeypatch.delenv("REPRO_OBS", raising=False)
    # And for fault injection: a leftover $REPRO_FAULTS plan must never
    # leak into (or out of) a test.  ``refresh`` re-reads the cleared
    # env and uninstalls the store write hook.
    had_plan = os.environ.get(_faults.FAULTS_ENV) is not None
    monkeypatch.delenv(_faults.FAULTS_ENV, raising=False)
    if had_plan:
        _faults.refresh()
    yield
    if os.environ.get(_faults.FAULTS_ENV) is not None:  # pragma: no cover
        monkeypatch.delenv(_faults.FAULTS_ENV, raising=False)
    _faults.refresh()


@pytest.fixture(autouse=True)
def _faults_watchdog(request):
    """Per-test wall-clock limit for ``@pytest.mark.faults`` tests.

    pytest-timeout is not available in this environment, so the limit
    is hand-rolled with ``SIGALRM``: an injected hang whose in-test
    deadline machinery is itself broken fails the one test instead of
    wedging the suite.  The pool's own attempt deadlines nest under
    this alarm (they restore and re-arm it on exit).
    """
    marker = request.node.get_closest_marker("faults")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    limit = float(marker.kwargs.get("timeout", 120.0))

    def _expired(signum, frame):
        pytest.fail(f"faults watchdog: test exceeded {limit}s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def drill_baseline():
    """``DRILL_MATRIX`` run fault-free in-process: every drill on that
    matrix must return these results bit for bit."""
    return run_matrix(**DRILL_MATRIX)


@pytest.fixture
def fleet():
    """Boot ``python -m repro.serve`` daemon subprocesses for a drill.

    ``fleet(store, *argv, faults=plan, port=0)`` returns a running
    ``_Daemon``.  Teardown SIGKILLs the process group of every daemon
    still alive, pool workers included, so a failing drill leaks none.
    """
    with contextlib.ExitStack() as daemons:
        yield lambda *args, **kwargs: daemons.enter_context(
            _Daemon(*args, **kwargs))


@pytest.fixture
def tiny_cfg():
    return build_tiny_cfg()


@pytest.fixture
def tiny_program(tiny_cfg):
    return link(tiny_cfg, natural_order(tiny_cfg), seed=7)


@pytest.fixture(scope="session")
def gzip_programs():
    """(base, optimized) gzip images at a small scale, built once."""
    return (
        prepare_program("gzip", optimized=False, scale=0.4),
        prepare_program("gzip", optimized=True, scale=0.4),
    )


@pytest.fixture
def machine8():
    return default_machine(8)


@pytest.fixture
def mem8(machine8):
    return MemoryHierarchy(machine8.memory)
