#!/usr/bin/env python
"""Incremental experiment runs: the Figure 8 matrix against a store.

Runs a small Figure-8-style matrix (two benchmarks x two layouts x two
widths x all four fetch engines) twice against an on-disk artifact
store.  The cold run links each program image once, simulates every
cell and stores the per-cell results; the warm run resolves every
cell's fingerprint in the store and returns a bit-identical matrix
without simulating anything.

The store lives in ``.repro-store/`` next to the repo (git-ignored) by
default; pass a directory argument to put it elsewhere.  Layout, GC
policy and the ``repro-experiments cache`` maintenance commands are
documented in benchmarks/README.md ("Artifact store").

Run:  python examples/cached_matrix.py [store-dir]
"""

import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.experiments.runner import run_matrix  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402

BENCHMARKS = ("gzip", "twolf")
KWARGS = dict(widths=(2, 8), instructions=20_000, scale=0.4)


def run_once(label: str, store: str) -> "object":
    t0 = time.perf_counter()
    matrix = run_matrix(BENCHMARKS, **KWARGS, store=store)
    dt = time.perf_counter() - t0
    cells = len(matrix.results)
    print(f"{label}: {cells} cells in {dt:6.2f}s")
    return matrix


def main() -> None:
    store = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".repro-store"
    )
    print(f"artifact store: {os.path.abspath(store)}")
    cold = run_once("cold run (simulate + populate)", store)
    warm = run_once("warm run (served from store)  ", store)

    identical = all(
        cold.results[spec] == warm.results[spec] for spec in cold.results
    )
    print(f"warm matrix bit-identical to cold: {identical}")
    if not identical:
        sys.exit(1)

    stats = ArtifactStore(store).stats()
    print("store contents:")
    for kind, row in sorted(stats["kinds"].items()):
        print(f"  {kind:8s} {row['entries']:4d} entries "
              f"{row['bytes']:>10,d} bytes")
    print(f"  ({stats['objects']} objects, {stats['object_bytes']:,d} bytes "
          f"on disk; prune with 'repro-experiments cache gc')")

    # The store keys on every input: a different width sweep below
    # would simulate only the cells not already present.
    example = cold.get("stream", "gzip", 8, True)
    print(f"\nsample cell  stream/gzip/8-wide/optimized: "
          f"IPC={example.ipc:.2f}")


if __name__ == "__main__":
    main()
