"""In-process scheduler tests: admission, coalescing, deadlines,
failure propagation — no sockets involved."""

from __future__ import annotations

import threading
import time
import types

import pytest
from helpers import result_digest

from repro.exec.faults import FaultSpec, active_plan
from repro.exec.journal import sweep_fingerprint
from repro.exec.policy import FaultPolicy
from repro.experiments.runner import run_matrix
from repro.serve import scheduler as scheduler_mod
from repro.serve.protocol import CELL_DEADLINE, CELL_FAILED, CELL_OK, \
    MatrixQuery
from repro.serve.scheduler import Draining, ExperimentScheduler, Overloaded
from repro.store.store import ArtifactStore, read_journal

ONE_CELL = MatrixQuery(
    benchmarks=("gzip",), widths=(8,), archs=("stream",), layouts=(True,),
    instructions=3000, warmup=1000, scale=0.3,
)
TWO_CELLS = MatrixQuery(
    benchmarks=("gzip",), widths=(8,), archs=("stream", "ev8"),
    layouts=(True,), instructions=3000, warmup=1000, scale=0.3,
)


def _local(query: MatrixQuery):
    return run_matrix(
        query.benchmarks, widths=query.widths, archs=query.archs,
        layouts=query.layouts, instructions=query.instructions,
        warmup=query.warmup, scale=query.scale,
    )


@pytest.fixture
def scheduler(tmp_path):
    sched = ExperimentScheduler(store_root=str(tmp_path / "store"),
                                max_workers=2)
    yield sched
    sched.drain(timeout=120)


def test_cold_then_warm_matches_local(scheduler):
    base = _local(TWO_CELLS)
    outcomes = scheduler.submit(TWO_CELLS).wait()
    assert [o.status for o in outcomes] == [CELL_OK, CELL_OK]
    assert {o.source for o in outcomes} == {"computed"}
    got = {o.spec: o.result for o in outcomes}
    assert got == base.results
    # Second submission: everything from the store, no new simulations.
    outcomes = scheduler.submit(TWO_CELLS).wait()
    assert {o.source for o in outcomes} == {"store"}
    assert {o.spec: o.result for o in outcomes} == base.results
    assert scheduler.cells_computed == 2


def test_concurrent_identical_requests_coalesce(scheduler):
    base = _local(ONE_CELL)
    n = 4
    barrier = threading.Barrier(n)
    results = [None] * n

    def client(i):
        barrier.wait()
        results[i] = scheduler.submit(ONE_CELL).wait()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    (expected,) = base.results.values()
    for outcomes in results:
        assert outcomes is not None
        (outcome,) = outcomes
        assert outcome.status == CELL_OK
        assert result_digest(outcome.result) == result_digest(expected)
    # One simulation total; at least the store-missed requests that
    # arrived while it ran were coalesced, not re-queued.
    assert scheduler.cells_computed == 1
    status = scheduler.status()
    assert status["cells"]["computed"] == 1
    assert status["cells"]["coalesced"] + sum(
        1 for outcomes in results if outcomes[0].source == "store"
    ) == n - 1


def test_overload_rejects_but_coalescing_still_admits(tmp_path):
    sched = ExperimentScheduler(store_root=str(tmp_path / "store"),
                                queue_limit=1, max_workers=1)
    try:
        with pytest.raises(Overloaded):
            sched.submit(TWO_CELLS)  # 2 owned cells > limit 1
        ticket = sched.submit(ONE_CELL)  # 1 owned cell fits exactly
        # An identical concurrent request owns nothing -> admitted even
        # at the limit (it coalesces onto the in-flight cell).
        ticket2 = sched.submit(ONE_CELL)
        assert [o.status for o in ticket.wait()] == [CELL_OK]
        assert [o.status for o in ticket2.wait()] == [CELL_OK]
    finally:
        assert sched.drain(timeout=120)
    # The rejected request left no residue.
    assert sched.status()["queue"]["backlog"] == 0
    assert sched.status()["cells"]["pending"] == 0


def test_zero_deadline_is_rejected_typed(scheduler):
    with pytest.raises(Overloaded):
        scheduler.submit(MatrixQuery(
            benchmarks=("gzip",), widths=(8,), archs=("stream",),
            layouts=(True,), instructions=3000, warmup=1000, scale=0.3,
            deadline=0.0,
        ))


def test_draining_scheduler_refuses_admission(tmp_path):
    sched = ExperimentScheduler(store_root=str(tmp_path / "store"))
    assert sched.drain(timeout=120)
    with pytest.raises(Draining):
        sched.submit(ONE_CELL)


@pytest.mark.faults(timeout=120)
def test_failing_cell_reports_typed_failure(tmp_path):
    # Serial execution in the executor thread: the injected exception
    # outlives the retry budget, so the cell must settle as a typed
    # per-cell failure (and the other cell must still succeed).
    sched = ExperimentScheduler(
        store_root=str(tmp_path / "store"), use_fork_pool=False,
        policy=FaultPolicy(retries=1, backoff=0.0),
    )
    try:
        with active_plan(FaultSpec("exc", match="ev8", times=8)):
            outcomes = sched.submit(TWO_CELLS).wait()
        by_arch = {o.spec.arch: o for o in outcomes}
        assert by_arch["stream"].status == CELL_OK
        assert by_arch["ev8"].status == CELL_FAILED
        assert "injected" in by_arch["ev8"].error
        assert sched.cells_failed == 1
        # The failure is not sticky: a fault-free resubmission computes
        # the cell (stream now comes from the store).
        outcomes = sched.submit(TWO_CELLS).wait()
        assert {o.spec.arch: o.status for o in outcomes} == \
            {"stream": CELL_OK, "ev8": CELL_OK}
        assert by_arch["stream"].result == \
            {o.spec.arch: o for o in outcomes}["stream"].result
    finally:
        assert sched.drain(timeout=120)


@pytest.mark.faults(timeout=120)
def test_deadline_returns_partials_and_drops_unwanted_cells(tmp_path):
    # Request A's only cell hangs ~4s on the single worker; request B
    # arrives mid-batch with a tiny deadline, so its cell sits queued
    # and never starts.  B must get a typed ``deadline`` partial, its
    # released claim must let the scheduler drop the cell unrun, and
    # A's hung-but-started cell must still finish into the store.
    sched = ExperimentScheduler(
        store_root=str(tmp_path / "store"), max_workers=1,
        policy=FaultPolicy(timeout=60.0, retries=1, backoff=0.0),
    )
    try:
        with active_plan(FaultSpec("hang", match="stream", times=1,
                                   seconds=4.0)):
            ticket_a = sched.submit(ONE_CELL)  # stream: hangs, no deadline
            time.sleep(1.0)  # the executor is now inside A's batch
            ticket_b = sched.submit(MatrixQuery(
                benchmarks=("gzip",), widths=(8,), archs=("ev8",),
                layouts=(True,), instructions=3000, warmup=1000,
                scale=0.3, deadline=0.2,
            ))
            assert [o.status for o in ticket_b.wait()] == [CELL_DEADLINE]
            assert [o.status for o in ticket_a.wait()] == [CELL_OK]
    finally:
        assert sched.drain(timeout=120)
    # A's cell computed (the hang only delayed it); B's queued cell was
    # dropped unrun once its only waiter gave up.
    assert sched.cells_computed == 1
    assert sched.cells_dropped == 1
    assert sched.status()["cells"]["pending"] == 0
    assert sched.status()["queue"]["backlog"] == 0


@pytest.mark.faults(timeout=120)
def test_coalesced_cells_are_journaled(tmp_path):
    # ev8 hangs 1 s in the first request's batch, so the next two
    # requests coalesce onto it: the second owns ftb, the third owns
    # nothing.  Each request's journal must list every cell it got back
    # ok, coalesced ones included.
    root = str(tmp_path / "store")
    sched = ExperimentScheduler(store_root=root, max_workers=2)
    queries = [TWO_CELLS] + [
        MatrixQuery(
            benchmarks=("gzip",), widths=(8,), archs=archs, layouts=(True,),
            instructions=3000, warmup=1000, scale=0.3,
        )
        for archs in (("ev8", "ftb"), ("ev8",))
    ]
    try:
        with active_plan(FaultSpec("hang", match="ev8", times=1,
                                   seconds=1.0)):
            tickets = [sched.submit(query) for query in queries]
            answers = [ticket.wait() for ticket in tickets]
    finally:
        assert sched.drain(timeout=120)
    assert {o.status for outcomes in answers for o in outcomes} == {CELL_OK}
    ev8_sources = [o.source for outcomes in answers for o in outcomes
                   if o.spec.arch == "ev8"]
    assert ev8_sources == ["computed", "coalesced", "coalesced"]
    store = ArtifactStore(root)
    for ticket in tickets:
        fps = set(ticket.fps.values())
        journal = read_journal(store.journal_path(sweep_fingerprint(fps)))
        assert journal is not None
        assert set(journal["done"]) == fps


def test_status_surface_shape(scheduler):
    scheduler.submit(ONE_CELL).wait()
    status = scheduler.status()
    assert status["requests"] == 1
    assert status["cells"]["computed"] == 1
    assert status["queue"]["limit"] == scheduler.queue_limit
    assert status["pool"]["kind"] in ("fork", "serial", "none")
    assert status["resident"]["programs"] >= 1
    assert status["store"]["misses"]["result"] >= 1
    assert status["uptime"] > 0


@pytest.mark.parametrize("pool_backoff, delays", [
    (0.5, [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]),
    (1.0, [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0]),
])
def test_pool_rebuild_backoff_doubles_per_strike_up_to_30s(
        monkeypatch, pool_backoff, delays):
    slept = []
    monkeypatch.setattr(scheduler_mod, "time", types.SimpleNamespace(
        sleep=slept.append, monotonic=time.monotonic))
    sched = ExperimentScheduler(pool_backoff=pool_backoff,
                                use_fork_pool=True)
    try:
        for strikes in range(7):
            # A rebuild after ``strikes`` consecutive failed pools.
            sched._pool, sched._pool_rebuilds = None, 1
            sched._pool_strikes = strikes
            sched._ensure_pool().close()
    finally:
        assert sched.drain(timeout=60)
    assert slept == [d for d in delays if d > 0]
