#!/usr/bin/env python
"""Two daemons sharing artifacts through the federated store.

Daemon A simulates a matrix cold into its own store.  Daemon B boots
with ``--store-peers`` pointing at A and serves the *same* matrix
without simulating anything: each cell arrives by read-through fill —
fetched from A, oid-verified, landed atomically in B's local store,
then served.  Then A is SIGKILLed and B serves the matrix again,
purely from the local copies the fills left behind: losing every peer
costs nothing that already landed, and can never cost correctness.

    python examples/federated_sweep.py

Against a real fleet, skip the bootstrapping and just pass peers:

    python -m repro.serve --store /data/store --store-peers host1:7777
    repro-experiments fig8 --store cache/ --store-peers host1:7777
    run_matrix(..., store="cache/", peers="host1:7777")
"""

import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.experiments.runner import run_matrix  # noqa: E402
from repro.serve.__main__ import _Daemon  # noqa: E402

MATRIX = dict(benchmarks=("gzip",), widths=(4, 8),
              archs=("stream", "ev8"), layouts=(True,),
              instructions=20_000, warmup=5_000, scale=0.4)


def sweep(daemon: _Daemon, label: str, base) -> None:
    t0 = time.perf_counter()
    out = run_matrix(cluster=[daemon.address], **MATRIX)
    dt = time.perf_counter() - t0
    identical = out.results == base.results
    ok = "bit-identical" if identical else "DIVERGED!"
    status = daemon.client.status()
    line = (f"{label}: {len(out.results)} cells in {dt:5.2f}s "
            f"({ok}); simulated {status['cells']['computed']}")
    remote = status.get("store", {}).get("remote")
    if remote:
        peer = remote["peers"][0]
        line += (f", peer {peer['peer']} [{peer['state']}] "
                 f"hits {peer['hits']} errors {peer['errors']}")
    print(line)
    if not identical:
        sys.exit(1)


def main() -> None:
    print("local baseline...")
    base = run_matrix(**MATRIX)

    with tempfile.TemporaryDirectory() as root_a, \
            tempfile.TemporaryDirectory() as root_b:
        print("booting daemon A (cold store)...")
        with _Daemon(root_a) as a:
            sweep(a, "daemon A (simulates cold)", base)

            print(f"booting daemon B with --store-peers {a.address}...")
            with _Daemon(root_b, "--store-peers", a.address) as b:
                sweep(b, "daemon B (read-through)", base)

                print(f"\nSIGKILL {a.address}; asking B again...")
                a.kill()
                sweep(b, "daemon B (peer dead)", base)
                b.drain_and_wait()


if __name__ == "__main__":
    main()
