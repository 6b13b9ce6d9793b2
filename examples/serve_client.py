#!/usr/bin/env python
"""Running a sweep on the experiment daemon: cold and warm.

Runs a small matrix on a running ``python -m repro.serve`` daemon
twice, through ``run_matrix(cluster=[address])``.  The first (cold)
sweep simulates on the daemon and persists every cell to its store; the
second (warm) sweep is answered from the store without simulating —
both bit-identical to a local ``run_matrix``.  A second client asking
the same cells while the cold sweep is still running would be coalesced
onto the in-flight work, not queued behind it; `status` shows those
counters.

With no daemon address on the command line, the example boots an
in-process server on an ephemeral port with a throwaway store so it is
self-contained:

    python examples/serve_client.py              # in-process server
    python -m repro.serve --store /tmp/s --port 7777 &
    python examples/serve_client.py 7777         # real daemon

Any matrix command of the CLI takes the same address:
``repro-experiments fig8 --cluster 127.0.0.1:7777``.
"""

import os
import shutil
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.experiments.runner import run_matrix  # noqa: E402
from repro.serve import ExperimentServer, ServeClient  # noqa: E402

BENCHMARKS = ("gzip",)
KWARGS = dict(widths=(8,), instructions=10_000, scale=0.4)


def sweep(address: str, label: str) -> "object":
    t0 = time.perf_counter()
    matrix = run_matrix(BENCHMARKS, cluster=[address], **KWARGS)
    dt = time.perf_counter() - t0
    print(f"{label}: {len(matrix.results)} cells in {dt:6.2f}s")
    return matrix


def main() -> None:
    tmp_store = None
    server = None
    if len(sys.argv) > 1:
        client = ServeClient.at(sys.argv[1])
    else:
        tmp_store = tempfile.mkdtemp(prefix="repro-serve-example-")
        server = ExperimentServer(store_root=tmp_store).start()
        client = ServeClient(*server.address)
        print(f"no address given; started an in-process server on "
              f"{client.address}")
    try:
        ping = client.ping()
        print(f"daemon pid {ping['pid']}, protocol v{ping['version']}")

        cold = sweep(client.address,
                     "cold sweep (daemon simulates + persists)")
        warm = sweep(client.address,
                     "warm sweep (served from the daemon's store)")
        local = run_matrix(BENCHMARKS, **KWARGS)
        print("served cells bit-identical to a local run: "
              f"{cold.results == warm.results == local.results}")

        status = client.status()
        cells = status["cells"]
        queue = status["queue"]
        print(f"daemon status: up {status['uptime']:.1f}s, "
              f"{status['requests']} requests; "
              f"{cells['computed']} computed, {cells['coalesced']} "
              f"coalesced, {cells['failed']} failed, "
              f"{cells['in_flight']} in flight; queue "
              f"{queue['backlog']}/{queue['limit']}; pool "
              f"{status['pool']['kind']} x{status['pool']['workers']}")

        # The metrics op serves the same counters (plus store, exec and
        # core families) in Prometheus text format — point a scraper at
        # it, or grep it like any text:
        metrics = client.metrics()
        for line in metrics.splitlines():
            if line.startswith(("repro_serve_requests_total",
                                "repro_serve_cells_total")):
                print(f"  {line}")
    finally:
        if server is not None:
            server.stop()
        if tmp_store is not None:
            shutil.rmtree(tmp_store, ignore_errors=True)


if __name__ == "__main__":
    main()
