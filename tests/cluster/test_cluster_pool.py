"""ClusterPool dispatch, redispatch, budget, and degradation logic.

Driven through fake clients (no sockets, no subprocesses): every
failure path is scripted, so each test pins one piece of the pool's
contract.  The drills against real daemon subprocesses live in
``test_cluster_drills.py``.
"""

from __future__ import annotations

import functools

import pytest
from helpers import free_port

from repro.cluster.health import DEAD, HEALTHY, SUSPECT, HealthPolicy
from repro.cluster.pool import ClusterPool
from repro.exec.policy import FaultPolicy, SweepError
from repro.exec.pool import Job, SerialPool
from repro.experiments.runner import RunSpec, run_matrix
from repro.serve import protocol
from repro.serve.client import ServeOverloaded, ServeUnavailable

FAST = FaultPolicy(retries=2, backoff=0.0)
FAST_HEALTH = HealthPolicy(suspect_after=1, dead_after=1,
                           probe_backoff=0.01, probe_backoff_factor=1.0,
                           probe_backoff_max=0.02, probe_jitter=0.0)

ONE_CELL = dict(benchmarks=("gzip",), widths=(8,), archs=("stream",),
                layouts=(True,), instructions=2000, warmup=500, scale=0.3)


@pytest.fixture(scope="module")
def encoded_result():
    """One real encoded result payload, shared by every fake cell."""
    base = run_matrix(**ONE_CELL)
    ((_, result),) = base.results.items()
    return protocol.encode_result(result)


class FakeClient:
    """Scripted stand-in for ServeClient: ``script`` lists per-call
    actions ("ok", "fail", "deadline", "garbage", or an exception to
    raise); ``default`` covers calls past the script's end."""

    def __init__(self, address, payload, script=(), default="ok",
                 ping_ok=True):
        self.address = address
        self.payload = payload
        self.script = list(script)
        self.default = default
        self.ping_ok = ping_ok
        self.queries = []
        self.pings = 0

    def ping(self):
        self.pings += 1
        if not self.ping_ok:
            raise ServeUnavailable(f"no daemon at {self.address}")
        return {"ok": True}

    def matrix(self, query):
        self.queries.append(query)
        action = self.script.pop(0) if self.script else self.default
        if isinstance(action, Exception):
            raise action
        cell = {
            "arch": query.archs[0], "benchmark": query.benchmarks[0],
            "width": query.widths[0], "optimized": query.layouts[0],
            "status": protocol.CELL_OK, "result": self.payload,
            "source": "computed",
        }
        if action == "fail":
            cell.update(status=protocol.CELL_FAILED, result=None,
                        error="remote boom")
        elif action == "deadline":
            cell.update(status=protocol.CELL_DEADLINE, result=None)
        elif action == "garbage":
            cell.update(result="!!! not base64 !!!")
        return {"ok": True, "cells": [cell]}


def _jobs(n):
    widths = (2, 4, 8, 16, 32)[:n]
    return [
        Job(spec, (spec, 3000, 1000, 0.3, None, None))
        for spec in (RunSpec("stream", "gzip", w, True) for w in widths)
    ]


def _pool(clients, **kwargs):
    by_address = {c.address: c for c in clients}
    kwargs.setdefault("policy", FAST)
    return ClusterPool(
        list(by_address), client_factory=by_address.__getitem__,
        node_slots=1, **kwargs,
    )


def _local_fn(spec, instructions, warmup, scale, program_key,
              engine_mode):
    return ("local", spec.width)


# ----------------------------------------------------------------------
def test_happy_path_spreads_work_and_keeps_wire_bytes(encoded_result):
    a = FakeClient("a:1", encoded_result)
    b = FakeClient("b:1", encoded_result)
    pool = _pool([a, b])
    jobs = _jobs(4)
    seen = []
    results = pool.run(_local_fn, jobs,
                       completed=lambda job, r: seen.append(job.key))
    assert len(results) == 4 and len(seen) == 4
    decoded = protocol.decode_result(encoded_result)
    assert all(r == decoded for r in results.values())
    # Raw wire bytes are retained per cell for verbatim store ingest,
    # and popped exactly once.
    import base64

    shipped = base64.b64decode(encoded_result)
    for job in jobs:
        assert pool.take_raw(job.key) == shipped
        assert pool.take_raw(job.key) is None
    assert set(pool.sources.values()) == {"computed"}
    # Both nodes did work and the stats surface agrees.
    stats = pool.worker_stats()
    assert stats["dispatched"] == 4 and stats["completed"] == 4
    assert sorted(w["completed"] for w in stats["workers"]) == [2, 2]
    assert all(w["state"] == HEALTHY for w in stats["workers"])


def test_transport_failures_redispatch_without_cell_budget(
        encoded_result):
    # retries=0: if redispatch consumed the cell's budget, every cell
    # the sick node touched would fail the sweep.
    sick = FakeClient("sick:1", encoded_result,
                      default=ServeUnavailable("connection refused"))
    ok = FakeClient("ok:1", encoded_result)
    pool = _pool([sick, ok], policy=FaultPolicy(retries=0, backoff=0.0))
    jobs = _jobs(4)
    results = pool.run(_local_fn, jobs)
    assert len(results) == 4
    assert pool.redispatches >= 1
    assert all(job.attempt == 0 for job in jobs)  # no budget consumed
    nodes = {n.address: n for n in pool.nodes}
    assert nodes["sick:1"].state in (SUSPECT, DEAD)
    assert nodes["sick:1"].completed == 0
    assert nodes["ok:1"].completed == 4


def test_remote_cell_failures_consume_the_cell_budget(encoded_result):
    node = FakeClient("a:1", encoded_result, default="fail")
    pool = _pool([node], policy=FaultPolicy(retries=1, backoff=0.0))
    with pytest.raises(SweepError) as excinfo:
        pool.run(_local_fn, _jobs(1))
    (messages,) = excinfo.value.failures.values()
    assert len(messages) == 2  # initial + 1 retry
    assert all("remote: remote boom" in m for m in messages)
    # The *node* answered correctly every time: it stays healthy.
    assert pool.nodes[0].state == HEALTHY
    assert pool.degraded_local is False


def test_deadline_propagates_and_retry_prefers_another_node(
        encoded_result):
    slow = FakeClient("slow:1", encoded_result, script=["deadline"])
    fast = FakeClient("fast:1", encoded_result)
    pool = _pool([slow, fast],
                 policy=FaultPolicy(timeout=7.5, retries=2, backoff=0.0))
    results = pool.run(_local_fn, _jobs(1))
    assert len(results) == 1
    # The FaultPolicy timeout rode the wire as the serve deadline.
    assert slow.queries[0].deadline == 7.5
    # The retry went to the other node, not back to the slow one.
    assert len(slow.queries) == 1 and len(fast.queries) == 1


def test_overloaded_node_requeues_and_counts_against_health(
        encoded_result):
    node = FakeClient("a:1", encoded_result,
                      script=[ServeOverloaded("queue full")])
    pool = _pool([node])
    results = pool.run(_local_fn, _jobs(1))
    assert len(results) == 1
    assert pool.redispatches == 1
    assert pool.nodes[0].failures == 1


def test_undecodable_payload_poisons_the_node_not_the_cell(
        encoded_result):
    # A daemon of a different code version answers garbage payloads:
    # that cannot consume the cell's budget (retries=0 proves it).
    stale = FakeClient("stale:1", encoded_result, default="garbage")
    good = FakeClient("good:1", encoded_result)
    pool = _pool([stale, good],
                 policy=FaultPolicy(retries=0, backoff=0.0))
    results = pool.run(_local_fn, _jobs(1))
    assert len(results) == 1
    assert pool.nodes[0].failures >= 1
    assert good.queries  # the cell landed on the healthy node


def test_whole_fleet_down_degrades_to_local_pool(encoded_result):
    down = ServeUnavailable("connection refused")
    a = FakeClient("a:1", encoded_result, default=down, ping_ok=False)
    b = FakeClient("b:1", encoded_result, default=down, ping_ok=False)
    pool = _pool([a, b], health_policy=FAST_HEALTH, probe_rounds=1,
                 fallback_factory=lambda: SerialPool(policy=FAST))
    jobs = _jobs(2)
    seen = []
    with pytest.warns(RuntimeWarning, match="no fleet node reachable"):
        results = pool.run(_local_fn, jobs,
                           completed=lambda job, r: seen.append(job.key))
    assert results == {job.key: ("local", job.key.width)
                       for job in jobs}
    assert len(seen) == 2  # completed fired for fallback cells too
    assert pool.degraded_local
    assert all(node.state == DEAD for node in pool.nodes)
    assert all(pool.sources[job.key] == "local" for job in jobs)
    assert all(pool.take_raw(job.key) is None for job in jobs)
    # Local attempts count toward the pool-wide totals.
    assert pool.jobs_completed == 2


def test_heartbeat_reports_and_updates_state(encoded_result):
    up = FakeClient("up:1", encoded_result)
    down = FakeClient("down:1", encoded_result, ping_ok=False)
    pool = _pool([up, down], health_policy=FAST_HEALTH)
    assert pool.heartbeat() == {"up:1": HEALTHY, "down:1": DEAD}
    assert pool.nodes[1].breaker_trips == 1
    down.ping_ok = True  # the node came back: probation via heartbeat
    assert pool.heartbeat() == {"up:1": HEALTHY, "down:1": "probation"}


# ----------------------------------------------------------------------
def test_run_matrix_cluster_ingests_wire_bytes_into_store(
        tmp_path, encoded_result):
    """run_matrix(cluster=...) end to end against in-process 'nodes'
    that really simulate: results bit-identical and the client store
    holds the daemon's exact bytes (all hits on the next run)."""
    from repro.experiments.runner import run_cell_job
    from repro.store.cache import ArtifactCache

    class ServingClient(FakeClient):
        def matrix(self, query):
            self.queries.append(query)
            spec = RunSpec(query.archs[0], query.benchmarks[0],
                           query.widths[0], query.layouts[0])
            result = run_cell_job(
                spec, query.instructions, query.warmup, query.scale,
                None, query.engine_mode,
            )
            cell = dict(protocol.spec_to_wire(spec),
                        status=protocol.CELL_OK,
                        result=protocol.encode_result(result),
                        source="computed")
            return {"ok": True, "cells": [cell]}

    matrix = dict(ONE_CELL, widths=(4, 8))
    base = run_matrix(**matrix)
    pool = _pool([ServingClient("a:1", None),
                  ServingClient("b:1", None)])
    out = run_matrix(cluster=pool, store=str(tmp_path / "store"),
                     **matrix)
    assert out.results == base.results
    assert set(pool.sources.values()) == {"computed"}
    # The runner drained the raw bytes into the store...
    assert all(pool.take_raw(key) is None for key in base.results)
    # ...and a fresh local run is then pure store hits.
    arts = ArtifactCache(str(tmp_path / "store"))
    again = run_matrix(store=arts, **matrix)
    assert again.results == base.results
    assert arts.hits["result"] == 2


def _index(store):
    """Fingerprints per artifact kind in a store's index."""
    out = {}
    for kind, fp, _entry in store.iter_index():
        out.setdefault(kind, set()).add(fp)
    return out


@pytest.mark.parametrize("jobs", [1, 2])
def test_dead_fleet_fallback_stores_what_a_local_run_stores(
        tmp_path, monkeypatch, jobs):
    """With every node unreachable the sweep finishes on the pool a
    local run picks (serial for jobs=1, forked for jobs=2), and leaves
    the same result entries in the store."""
    from repro.store.store import ArtifactStore

    # The pool run_matrix builds gives up on the dead node at once: this
    # test is about what the fallback stores, not how long probing takes.
    monkeypatch.setattr(ClusterPool, "__init__", functools.partialmethod(
        ClusterPool.__init__, health_policy=FAST_HEALTH, probe_rounds=1))
    matrix = dict(ONE_CELL, archs=("stream", "ev8"), instructions=3000,
                  warmup=1000)
    local = ArtifactStore(str(tmp_path / "local"))
    base = run_matrix(store=local, jobs=jobs, **matrix)
    fleet = ArtifactStore(str(tmp_path / "fleet"))
    with pytest.warns(RuntimeWarning, match="no fleet node reachable"):
        out = run_matrix(cluster=[f"127.0.0.1:{free_port()}"], store=fleet,
                         jobs=jobs, **matrix)
    assert out.results == base.results
    assert _index(fleet) == _index(local)
    assert {kind: len(fps) for kind, fps in _index(fleet).items()} == \
        {"result": 2}
