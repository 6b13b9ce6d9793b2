"""``python -m repro.store.remote selftest`` — federated-store drills.

Each scenario runs a real sweep against a :class:`TieredStore` whose
peers are real ``repro.serve`` daemon subprocesses (or deliberately
dead addresses), injects one failure mode, and asserts the sweep's
results **bit-identical** to a storeless local baseline — the
degradation ladder must cost recomputes, never wrong numbers:

* ``all-peers-down`` — every peer address refuses connections; the
  tier strikes its breakers and degrades (warn-once) to local-only.
* ``version-skew`` — the peer speaks a different store version; it is
  warned about once, marked unusable, and never asked again.
* ``garbage-payload`` — the peer answers ``store_get`` with undecodable
  bytes (an injected ``net_garbage`` fault in the *daemon*); every
  corrupt response degrades to a miss and a local recompute.
* ``kill-mid-get`` — the peer is SIGKILLed while a delayed
  ``store_get`` is in flight; the half-dead connection costs one
  transport error, the rest of the sweep recomputes locally.
* ``partition-heal`` — a ``net_drop`` plan partitions the peer until
  its breaker opens; after the partition lifts, the next read probes
  the peer through its backoff and read-through works again.
* ``fleet-read-through`` — the acceptance drill: daemon A simulates
  the matrix cold, daemon B (``--store-peers`` A) serves the same
  matrix entirely by read-through fill — each cell simulated exactly
  once fleet-wide, counters asserted on both daemons.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.cluster.health import DEAD, HEALTHY, PROBATION, HealthPolicy
from repro.exec.faults import FaultSpec, active_plan, encode_plan
from repro.serve.__main__ import (
    MATRIX,
    N_CELLS,
    _assert_identical,
    _Daemon,
    _sweep,
    free_port,
)
from repro.store.remote.tiered import TieredStore
from repro.store.store import ArtifactStore

#: Breakers tuned for a selftest, not production: trip after two
#: failures, probe again within ~half a second.
FAST_HEALTH = HealthPolicy(
    suspect_after=1, dead_after=2,
    probe_backoff=0.2, probe_backoff_factor=1.5,
    probe_backoff_max=0.5, probe_jitter=0.2,
)


def _tier(root: str, peers: object, **kwargs: object) -> TieredStore:
    kwargs.setdefault("health_policy", FAST_HEALTH)
    kwargs.setdefault("connect_timeout", 2.0)
    kwargs.setdefault("request_timeout", 10.0)
    return TieredStore(root, peers, **kwargs)


def _run_local(store: ArtifactStore):
    from repro.experiments.runner import run_matrix

    return run_matrix(store=store, **MATRIX)


def _check_all_peers_down(base) -> None:
    """Dead addresses cost breaker strikes, never results."""
    peers = [f"127.0.0.1:{free_port()}" for _ in range(2)]
    with tempfile.TemporaryDirectory() as root:
        tier = _tier(root, peers)
        try:
            out = _run_local(tier)
            _assert_identical(out, base)
            for peer in tier.peers:
                assert peer.hits == 0, peer.stats()
                assert peer.errors >= 1, peer.stats()
            # Warm rerun over the now-populated local layer: still
            # bit-identical, still local-only.
            again = _run_local(tier)
            _assert_identical(again, base)
        finally:
            tier.close(timeout=1.0)


def _check_version_skew(base) -> None:
    """A version-skewed peer is warned about once and never asked again."""
    with tempfile.TemporaryDirectory() as remote_root, \
            tempfile.TemporaryDirectory() as local_root, \
            _Daemon(remote_root) as daemon:
        warm = _sweep(daemon)
        _assert_identical(warm, base)
        tier = _tier(local_root, daemon.address, version="bogus-selftest")
        try:
            out = _run_local(tier)
            _assert_identical(out, base)
            peer = tier.peers[0]
            assert peer.unusable, peer.stats()
            assert peer.hits == 0, peer.stats()
        finally:
            tier.close(timeout=1.0)
        assert daemon.drain_and_wait() == 0


def _check_garbage_payload(base) -> None:
    """Undecodable store_get responses degrade to misses + recompute."""
    plan = encode_plan(
        FaultSpec("net_garbage", match="store_get", times=100))
    with tempfile.TemporaryDirectory() as remote_root, \
            tempfile.TemporaryDirectory() as local_root, \
            _Daemon(remote_root, faults=plan) as daemon:
        # The fault matches frame text, so the daemon's ordinary matrix
        # responses are untouched — only store_get traffic is garbled.
        warm = _sweep(daemon)
        _assert_identical(warm, base)
        tier = _tier(local_root, daemon.address)
        try:
            out = _run_local(tier)
            _assert_identical(out, base)
            peer = tier.peers[0]
            assert peer.hits == 0, peer.stats()
            assert peer.errors >= 1, peer.stats()
        finally:
            tier.close(timeout=1.0)
        daemon.kill()  # drain would answer through garbled frames


def _check_kill_mid_get(base) -> None:
    """SIGKILL while a store_get is in flight costs one transport
    error; the sweep recomputes locally, bit-identically."""
    with tempfile.TemporaryDirectory() as remote_root, \
            tempfile.TemporaryDirectory() as local_root, \
            _Daemon(remote_root) as daemon:
        warm = _sweep(daemon)
        _assert_identical(warm, base)
        tier = _tier(local_root, daemon.address)
        killer = threading.Timer(1.0, daemon.kill)
        try:
            with active_plan(FaultSpec("net_delay", match="store_get",
                                       times=1, seconds=3.0)):
                killer.start()
                out = _run_local(tier)
            _assert_identical(out, base)
            peer = tier.peers[0]
            assert peer.hits == 0, peer.stats()
            assert peer.errors >= 1, peer.stats()
        finally:
            killer.cancel()
            tier.close(timeout=1.0)


def _check_partition_heal(base) -> None:
    """A partitioned peer trips its breaker; after the heal, the next
    read probes it through the backoff and read-through resumes."""
    extra_fp = "feedfacefeedface"
    extra_data = b"partition-heal extra artifact\n" * 8
    with tempfile.TemporaryDirectory() as remote_root, \
            tempfile.TemporaryDirectory() as local_root:
        port = free_port()
        address = f"127.0.0.1:{port}"
        # Seed the peer's store with an artifact the local tier does
        # not have: the only way to get it post-heal is read-through.
        ArtifactStore(remote_root).put(
            "result", extra_fp, extra_data, {"note": "heal-probe"})
        with _Daemon(remote_root, port=port) as daemon:
            tier = _tier(local_root, address)
            try:
                with active_plan(FaultSpec("net_drop", match=address,
                                           times=100)):
                    out = _run_local(tier)
                _assert_identical(out, base)
                peer = tier.peers[0]
                assert peer.hits == 0, peer.stats()
                assert peer.health.breaker_trips >= 1 \
                    or peer.health.state == DEAD, peer.stats()
                # Heal: the plan is gone; the probe backoff expires and
                # the seeded artifact arrives by read-through fill.
                got: Optional[bytes] = None
                deadline = time.monotonic() + 30.0
                while got is None and time.monotonic() < deadline:
                    got = tier.get("result", extra_fp)
                    if got is None:
                        time.sleep(0.1)
                assert got == extra_data, "read-through never healed"
                assert peer.hits == 1, peer.stats()
                assert peer.health.state in (HEALTHY, PROBATION), \
                    peer.stats()
            finally:
                tier.close(timeout=1.0)
            assert daemon.drain_and_wait() == 0


def _check_fleet_read_through(base) -> None:
    """Two federated daemons simulate each cold cell exactly once."""
    with tempfile.TemporaryDirectory() as root_a, \
            tempfile.TemporaryDirectory() as root_b, \
            _Daemon(root_a) as node_a:
        out_a = _sweep(node_a)
        _assert_identical(out_a, base)
        assert node_a.client.status()["cells"]["computed"] == N_CELLS
        with _Daemon(root_b, "--store-peers", node_a.address) as node_b:
            out_b = _sweep(node_b)
            _assert_identical(out_b, base)
            status = node_b.client.status()
            assert status["cells"]["computed"] == 0, (
                f"node B re-simulated "
                f"{status['cells']['computed']} cell(s) its peer "
                f"already held"
            )
            remote = status["store"]["remote"]
            hits = remote["peers"][0]["hits"]
            assert hits == N_CELLS, (
                f"expected {N_CELLS} read-through fills, saw {hits} "
                f"({remote})"
            )
            assert node_b.drain_and_wait() == 0
        assert node_a.drain_and_wait() == 0


CHECKS: List[Tuple[str, Callable]] = [
    ("all-peers-down", _check_all_peers_down),
    ("version-skew", _check_version_skew),
    ("garbage-payload", _check_garbage_payload),
    ("kill-mid-get", _check_kill_mid_get),
    ("partition-heal", _check_partition_heal),
    ("fleet-read-through", _check_fleet_read_through),
]


def selftest(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.remote selftest",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--only", metavar="NAME",
                        help="run a single scenario")
    parser.add_argument("--help-scenarios", action="store_true",
                        help="list the scenarios and exit")
    args = parser.parse_args(argv)
    if args.help_scenarios:
        for name, _ in CHECKS:
            print(name)
        return 0

    checks = CHECKS
    if args.only:
        checks = [(n, fn) for n, fn in CHECKS if n == args.only]
        if not checks:
            print(f"selftest: unknown scenario {args.only!r}",
                  file=sys.stderr)
            return 2

    from repro.experiments.runner import run_matrix

    print(f"selftest: local baseline matrix "
          f"({MATRIX['instructions']} instructions x {N_CELLS} cells)...",
          flush=True)
    base = run_matrix(**MATRIX)

    failed = 0
    for name, check in checks:
        print(f"selftest: {name}...", end=" ", flush=True)
        started = time.monotonic()
        try:
            check(base)
        except Exception as exc:
            failed += 1
            print(f"FAIL ({type(exc).__name__}: {exc})")
        else:
            print(f"ok ({time.monotonic() - started:.1f}s)")
    if failed:
        print(f"selftest: {failed} scenario(s) FAILED", file=sys.stderr)
        return 1
    print(f"selftest: {len(checks)} scenario(s) passed; every sweep "
          f"bit-identical to a local run_matrix")
    return 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "selftest":
        return selftest(argv[1:])
    print("usage: python -m repro.store.remote selftest [--only NAME] "
          "[--help-scenarios]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
