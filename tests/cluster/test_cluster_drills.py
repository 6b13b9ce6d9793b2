"""Fleet failure drills: real ``repro.serve`` daemon subprocesses behind
a :class:`ClusterPool`, one injected failure each, and results that
stay bit-identical to a local ``run_matrix``.

The dead-fleet case needs no daemon; ``test_cluster_pool.py`` covers
it (``test_dead_fleet_fallback_stores_what_a_local_run_stores`` and
``test_whole_fleet_down_degrades_to_local_pool``).
"""

from __future__ import annotations

import threading

import pytest
from helpers import DRILL_MATRIX, free_port

from repro.cluster.health import HEALTHY, PROBATION, HealthPolicy
from repro.cluster.pool import ClusterPool
from repro.exec.faults import FaultSpec, active_plan, encode_plan
from repro.exec.policy import FaultPolicy
from repro.experiments.runner import run_matrix
from repro.store.cache import ArtifactCache

#: Four cells, so redispatch has somewhere to go while other work runs;
#: the ``ev8`` cells are the fault targets (their job keys and wire
#: frames contain the arch name).
MATRIX = dict(DRILL_MATRIX, widths=(4, 8))
N_CELLS = 4

#: Fast-failing policies so drills run in seconds: no retry backoff, a
#: two-strike breaker, sub-second probe backoff.
FAST = FaultPolicy(timeout=None, retries=2, backoff=0.0)
FAST_HEALTH = HealthPolicy(
    suspect_after=1, dead_after=2,
    probe_backoff=0.25, probe_backoff_max=2.0,
)

pytestmark = pytest.mark.faults(timeout=120)


@pytest.fixture(scope="session")
def baseline():
    """``MATRIX`` run fault-free in-process."""
    return run_matrix(**MATRIX)


def _by_address(pool: ClusterPool) -> dict:
    return {node.address: node for node in pool.nodes}


def test_kill_mid_sweep_redispatches_to_the_survivor(
        tmp_path, fleet, baseline):
    """SIGKILL one of two daemons mid-sweep: in-flight cells
    redispatch to the survivor; store hits are never sent anywhere;
    remote results ingest into the client store byte-for-byte."""
    client_root = str(tmp_path / "client")
    # Pre-warm one cell locally: the cluster run must treat it as a
    # store hit and dispatch only the three genuine misses.
    run_matrix(store=client_root,
               **dict(MATRIX, widths=(4,), archs=("stream",)))
    hang = encode_plan(FaultSpec("hang", match="", times=16, seconds=90))
    victim = fleet(str(tmp_path / "victim"), faults=hang)
    survivor = fleet(str(tmp_path / "survivor"))
    pool = ClusterPool(
        [victim.address, survivor.address],
        policy=FAST, health_policy=FAST_HEALTH, node_slots=1,
    )
    # The victim hangs every cell it is handed; killing it mid-sweep
    # turns that hang into a connection reset.
    killer = threading.Timer(2.5, victim.kill)
    killer.start()
    try:
        out = run_matrix(cluster=pool, store=client_root, **MATRIX)
    finally:
        killer.cancel()
    assert out.results == baseline.results
    nodes = _by_address(pool)
    assert not pool.degraded_local
    assert pool.redispatches >= 1, \
        "the killed daemon's cell was never redispatched"
    assert nodes[victim.address].completed == 0
    assert nodes[survivor.address].completed == N_CELLS - 1
    # Only the genuine misses went remote.
    assert len(pool.sources) == N_CELLS - 1, pool.sources
    # The ingested wire bytes must decode as plain store hits.
    arts = ArtifactCache(client_root)
    assert run_matrix(store=arts, **MATRIX).results == baseline.results
    assert arts.hits["result"] == N_CELLS, arts.hits


def test_partitioned_node_trips_its_breaker_then_heals(
        tmp_path, fleet, baseline):
    """Partition one node mid-frame until its breaker opens; the sweep
    survives on the peer, a heartbeat heals the node via probation,
    and the next sweep dispatches to it again."""
    port_a = free_port()
    address_a = f"127.0.0.1:{port_a}"
    node_a = fleet(str(tmp_path), port=port_a)
    node_b = fleet(str(tmp_path))
    pool = ClusterPool(
        [node_a.address, node_b.address],
        policy=FAST, health_policy=FAST_HEALTH, node_slots=1,
    )
    # Client-side injection: the first two frames routed at node A die
    # halfway (the daemon never sees a full line, the client sees a
    # reset) — a partition, not a crash.
    with active_plan(FaultSpec("net_drop", match=address_a, times=2)):
        out = run_matrix(cluster=pool, **MATRIX)
    assert out.results == baseline.results
    nodes = _by_address(pool)
    assert not pool.degraded_local
    assert nodes[address_a].breaker_trips >= 1, \
        "the partitioned node never tripped its breaker"
    # Partition over: one heartbeat must walk A back in.
    states = pool.heartbeat()
    assert states[address_a] in (PROBATION, HEALTHY), states
    # And the healed node takes work again (the daemons share a store,
    # so this round is warm).
    assert run_matrix(cluster=pool, **MATRIX).results == baseline.results
    assert nodes[address_a].completed >= 1, \
        "the healed node was never dispatched to again"
    assert node_b.drain_and_wait() == 0


def test_slow_node_answers_a_deadline_partial_and_its_cells_redispatch(
        tmp_path, fleet, baseline):
    """A node that hangs past the policy deadline answers a typed
    deadline partial; the cell redispatches to a different node."""
    hang = encode_plan(FaultSpec("hang", match="ev8", times=8, seconds=45))
    slow_node = fleet(str(tmp_path / "a"), faults=hang)
    fast_node = fleet(str(tmp_path / "b"))
    pool = ClusterPool(
        [slow_node.address, fast_node.address],
        policy=FaultPolicy(timeout=2, retries=2, backoff=0.0),
        health_policy=FAST_HEALTH, node_slots=1,
    )
    out = run_matrix(cluster=pool, **dict(MATRIX, archs=("ev8",)))
    assert out.results == {spec: result
                           for spec, result in baseline.results.items()
                           if spec.arch == "ev8"}
    nodes = _by_address(pool)
    assert not pool.degraded_local
    # The slow node answered (deadline partial), so it is healthy — but
    # everything real was finished elsewhere.
    assert nodes[slow_node.address].completed == 0
    assert nodes[fast_node.address].completed == 2
