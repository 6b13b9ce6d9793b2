"""Federated-store drills: a real sweep against a :class:`TieredStore`
whose peers are real ``repro.serve`` daemon subprocesses (or dead
addresses), one injected failure each.  The degradation ladder must
cost recomputes, never wrong numbers: every sweep stays bit-identical
to a storeless local run.
"""

from __future__ import annotations

import threading
import time

import pytest
from helpers import DRILL_MATRIX, daemon_sweep, free_port

from repro.cluster.health import DEAD, HEALTHY, PROBATION, HealthPolicy
from repro.exec.faults import FaultSpec, active_plan, encode_plan
from repro.experiments.runner import run_matrix
from repro.store.remote.tiered import TieredStore
from repro.store.store import ArtifactStore

#: Breakers tuned for a drill, not production: trip after two
#: failures, probe again within ~half a second.
FAST_HEALTH = HealthPolicy(
    suspect_after=1, dead_after=2,
    probe_backoff=0.2, probe_backoff_factor=1.5,
    probe_backoff_max=0.5, probe_jitter=0.2,
)

pytestmark = pytest.mark.faults(timeout=120)


@pytest.fixture
def tier(tmp_path):
    """``tier(peers, **kwargs)``: a TieredStore on a fresh local root,
    closed at teardown."""
    tiers = []

    def make(peers, **kwargs) -> TieredStore:
        kwargs.setdefault("health_policy", FAST_HEALTH)
        kwargs.setdefault("connect_timeout", 2.0)
        kwargs.setdefault("request_timeout", 10.0)
        tiers.append(TieredStore(str(tmp_path / "local"), peers, **kwargs))
        return tiers[-1]

    yield make
    for made in tiers:
        made.close(timeout=1.0)


def _sweep(store):
    return run_matrix(store=store, **DRILL_MATRIX)


def test_dead_peers_cost_breaker_strikes_not_results(tier, drill_baseline):
    tiered = tier([f"127.0.0.1:{free_port()}" for _ in range(2)])
    assert _sweep(tiered).results == drill_baseline.results
    for peer in tiered.peers:
        assert peer.hits == 0, peer.stats()
        assert peer.errors >= 1, peer.stats()
    # Warm rerun over the now-populated local layer: still
    # bit-identical, still local-only.
    assert _sweep(tiered).results == drill_baseline.results


def test_version_skewed_peer_is_never_asked_again(
        tmp_path, fleet, tier, drill_baseline):
    daemon = fleet(str(tmp_path / "remote"))
    assert daemon_sweep(daemon).results == drill_baseline.results
    tiered = tier(daemon.address, version="bogus-drill")
    assert _sweep(tiered).results == drill_baseline.results
    peer = tiered.peers[0]
    assert peer.unusable, peer.stats()
    assert peer.hits == 0, peer.stats()
    assert daemon.drain_and_wait() == 0


def test_garbage_payloads_degrade_to_misses_and_recompute(
        tmp_path, fleet, tier, drill_baseline):
    # The fault matches frame text, so the daemon's ordinary matrix
    # responses are untouched: only store_get traffic is garbled (and
    # so is a drain reply, hence no drain at the end).
    plan = encode_plan(FaultSpec("net_garbage", match="store_get",
                                 times=100))
    daemon = fleet(str(tmp_path / "remote"), faults=plan)
    assert daemon_sweep(daemon).results == drill_baseline.results
    tiered = tier(daemon.address)
    assert _sweep(tiered).results == drill_baseline.results
    peer = tiered.peers[0]
    assert peer.hits == 0, peer.stats()
    assert peer.errors >= 1, peer.stats()


def test_peer_killed_mid_get_costs_one_transport_error(
        tmp_path, fleet, tier, drill_baseline):
    daemon = fleet(str(tmp_path / "remote"))
    assert daemon_sweep(daemon).results == drill_baseline.results
    tiered = tier(daemon.address)
    killer = threading.Timer(1.0, daemon.kill)
    try:
        with active_plan(FaultSpec("net_delay", match="store_get",
                                   times=1, seconds=3.0)):
            killer.start()
            out = _sweep(tiered)
    finally:
        killer.cancel()
    assert out.results == drill_baseline.results
    peer = tiered.peers[0]
    assert peer.hits == 0, peer.stats()
    assert peer.errors >= 1, peer.stats()


def test_partitioned_peer_trips_its_breaker_then_read_through_heals(
        tmp_path, fleet, tier, drill_baseline):
    extra_fp = "feedface" * 8
    extra_data = b"partition-heal extra artifact\n" * 8
    remote_root = str(tmp_path / "remote")
    port = free_port()
    address = f"127.0.0.1:{port}"
    # Seed the peer's store with an artifact the local tier does not
    # have: the only way to get it after the heal is read-through.
    ArtifactStore(remote_root).put(
        "result", extra_fp, extra_data, {"note": "heal-probe"})
    daemon = fleet(remote_root, port=port)
    tiered = tier(address)
    with active_plan(FaultSpec("net_drop", match=address, times=100)):
        out = _sweep(tiered)
    assert out.results == drill_baseline.results
    peer = tiered.peers[0]
    assert peer.hits == 0, peer.stats()
    assert peer.health.breaker_trips >= 1 \
        or peer.health.state == DEAD, peer.stats()
    # Heal: the plan is gone; the probe backoff expires and the seeded
    # artifact arrives by read-through fill.
    got = None
    deadline = time.monotonic() + 30.0
    while got is None and time.monotonic() < deadline:
        got = tiered.get("result", extra_fp)
        if got is None:
            time.sleep(0.1)
    assert got == extra_data, "read-through never healed"
    assert peer.hits == 1, peer.stats()
    assert peer.health.state in (HEALTHY, PROBATION), peer.stats()
    assert daemon.drain_and_wait() == 0


def test_peer_dead_at_put_time_gets_every_entry_once_healed(
        tmp_path, fleet, tier, drill_baseline):
    """A peer that is down while a sweep puts its results and comes up
    later ends up holding every entry, with no read and no ``cache
    sync``: the pusher keeps each put pending until the peer takes it."""
    remote_root = str(tmp_path / "remote")
    port = free_port()
    tiered = tier(f"127.0.0.1:{port}")
    assert _sweep(tiered).results == drill_baseline.results
    keys = [(kind, fp) for kind, fp, _e in tiered.local_store().iter_index()]
    assert len(keys) == len(drill_baseline.results)
    peer = tiered.peers[0]
    assert peer.errors >= 1 and peer.replicated == 0, peer.stats()
    daemon = fleet(remote_root, port=port)
    remote = ArtifactStore(remote_root)

    def missing():
        return [key for key in keys if remote.read(*key) is None]

    deadline = time.monotonic() + 30.0
    while missing() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not missing(), f"never replicated: {missing()} ({peer.stats()})"
    assert peer.replicated == len(keys), peer.stats()
    assert tiered.remote_stats()["replication"] == {"backlog": 0,
                                                    "dropped": 0}
    assert daemon.drain_and_wait() == 0


def test_federated_daemons_simulate_each_cell_once(
        tmp_path, fleet, drill_baseline):
    """Daemon A simulates the matrix cold; daemon B (``--store-peers``
    A) serves it entirely by read-through fill."""
    n_cells = len(drill_baseline.results)
    node_a = fleet(str(tmp_path / "a"))
    assert daemon_sweep(node_a).results == drill_baseline.results
    assert node_a.client.status()["cells"]["computed"] == n_cells
    node_b = fleet(str(tmp_path / "b"), "--store-peers", node_a.address)
    assert daemon_sweep(node_b).results == drill_baseline.results
    status = node_b.client.status()
    assert status["cells"]["computed"] == 0, (
        f"node B re-simulated {status['cells']['computed']} cell(s) its "
        f"peer already held"
    )
    remote = status["store"]["remote"]
    hits = remote["peers"][0]["hits"]
    assert hits == n_cells, \
        f"expected {n_cells} read-through fills, saw {hits} ({remote})"
    assert node_b.drain_and_wait() == 0
    assert node_a.drain_and_wait() == 0
