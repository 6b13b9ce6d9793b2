#!/usr/bin/env python
"""A sweep across a two-daemon fleet, surviving a node kill.

Boots two local ``python -m repro.serve`` daemons, runs a matrix
through ``run_matrix(cluster=...)`` so the cells spread across both,
then SIGKILLs one daemon and runs again: the pool's health machine
marks the node dead, redispatches its cells to the survivor, and the
results stay bit-identical to a local run throughout.

    python examples/cluster_sweep.py

Against a real fleet, skip the bootstrapping and just pass addresses:

    repro-experiments fig8 --cluster host1:7777,host2:7777
    run_matrix(..., cluster="host1:7777,host2:7777")
"""

import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.cluster import ClusterPool, HealthPolicy  # noqa: E402
from repro.exec import FaultPolicy  # noqa: E402
from repro.experiments.runner import run_matrix  # noqa: E402
from repro.serve.__main__ import _Daemon  # noqa: E402

MATRIX = dict(benchmarks=("gzip",), widths=(4, 8),
              archs=("stream", "ev8"), layouts=(True,),
              instructions=20_000, warmup=5_000, scale=0.4)


def sweep(pool: ClusterPool, label: str, base) -> None:
    t0 = time.perf_counter()
    out = run_matrix(cluster=pool, **MATRIX)
    dt = time.perf_counter() - t0
    identical = out.results == base.results
    ok = "bit-identical" if identical else "DIVERGED!"
    print(f"{label}: {len(out.results)} cells in {dt:5.2f}s ({ok})")
    for worker in pool.worker_stats()["workers"]:
        print(f"  {worker['node']:>21}  {worker['state']:>9}  "
              f"completed {worker['completed']}  "
              f"breaker trips {worker['breaker_trips']}")
    if not identical:
        sys.exit(1)


def main() -> None:
    print("local baseline...")
    base = run_matrix(**MATRIX)

    with tempfile.TemporaryDirectory() as store_root:
        print("booting two daemons on ephemeral ports...")
        with _Daemon(store_root) as a, _Daemon(store_root) as b:
            pool = ClusterPool(
                [a.address, b.address],
                policy=FaultPolicy(retries=2, backoff=0.1),
                # Snappy demo thresholds; defaults are more patient.
                health_policy=HealthPolicy(dead_after=2,
                                           probe_backoff=0.5),
                node_slots=1,
            )
            sweep(pool, "fleet sweep (cold)", base)

            print(f"\nSIGKILL {a.address}; sweeping again...")
            a.kill()
            sweep(pool, "fleet sweep (one node dead)", base)

            print("\nfleet heartbeat:", pool.heartbeat())
            b.drain_and_wait()


if __name__ == "__main__":
    main()
