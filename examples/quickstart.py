#!/usr/bin/env python
"""Quickstart: simulate the stream fetch architecture on one benchmark.

Builds the synthetic `gzip` workload in both code layouts, runs the
paper's stream front-end (Fig. 4) on an 8-wide machine, and prints the
three headline metrics of the evaluation: IPC, effective fetch width,
and branch misprediction rate.

Run:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.experiments.configs import simulate  # noqa: E402

N_INSTRUCTIONS = 60_000
WARMUP = 20_000


def main() -> None:
    print("Stream fetch architecture on synthetic SPECint 'gzip'")
    print("=" * 60)
    for optimized in (False, True):
        layout = "optimized" if optimized else "baseline "
        result = simulate(
            "stream", "gzip", width=8, optimized=optimized,
            instructions=N_INSTRUCTIONS, warmup=WARMUP, scale=0.6,
        )
        print(
            f"{layout} layout:  IPC={result.ipc:5.2f}   "
            f"fetch IPC={result.fetch_ipc:5.2f}   "
            f"mispredict={100 * result.branch_misprediction_rate:5.2f}%"
        )
        stats = result.engine_stats
        streams = stats.get("streams_committed", 0)
        if streams:
            avg = stats.get("stream_instructions", 0) / streams
            print(f"                   average committed stream: "
                  f"{avg:.1f} instructions")
    print()
    print("Layout optimization lengthens streams, which is exactly the")
    print("property the next stream predictor exploits (paper §3.2).")


if __name__ == "__main__":
    main()
