#!/usr/bin/env python
"""Simulator performance benchmark: the repo's perf trajectory anchor.

Measures three things:

* **simulated instructions per second** for each fetch engine (gzip,
  optimized layout, 8-wide) in both engine modes — ``accel`` (the
  exec-compiled kernels of :mod:`repro.accel`) and ``interp`` (the
  interpreted paths); results are bit-identical, only speed differs;
* **matrix wall-clock** for the default ``run_matrix`` perf workload
  (gzip + twolf, both layouts, all four engines, 100k instructions),
  serial and — when this host has more than one CPU — parallel, plus
  the **per-worker pool setup overhead** so "is jobs=N worth it here?"
  can be answered from the report, and the **per-job dispatch
  overhead** of the fault-tolerant pools (``repro.exec``) both paths
  now run through, so "did the fault machinery slow the fault-free
  path?" is answerable too;
* **service latency** through :mod:`repro.serve` — an in-process
  daemon on an ephemeral port answers the same one-cell matrix query
  cold (simulated) and warm (store-hit replay), so the report states
  what the wire protocol, admission and store probe cost on top of raw
  simulation (schema 5);
* **observability overhead** (schema 6): the per-cell cost of the
  disabled-mode ``repro.obs`` hook, stated as a fraction of the
  fastest quick cell in both engine modes, plus an on/off
  bit-identity check;
* **cluster dispatch overhead** (schema 7): a small matrix through
  :mod:`repro.cluster` against two in-process daemons, cold
  (simulated remotely) and warm (store-hit round trips), next to the
  same matrix run locally — what fleet dispatch costs per cell on top
  of the local pools;
* with ``--store DIR``, the artifact-store warm-vs-cold matrix.

The full run writes ``BENCH_perf.json`` at the repo root; that file is
committed and becomes the baseline every future PR is measured against.
``SEED_BASELINE`` pins the pre-optimization (seed) numbers and
``PR3_BASELINE`` the PR 3 (pre-accelerator) numbers measured on the
reference container, so the report states both the cumulative speedup
and the accelerator's contribution.  Reported speedups are normalized
by the calibration workload's drift, comparing code against code
rather than one machine epoch against another.

``--quick`` is the CI smoke mode: a few seconds of engine-only
measurement **in both engine modes**, compared against the committed
baseline's ``quick_engines`` (accel) and ``quick_engines_interp``
sections.  A regression of more than ``REGRESSION_TOLERANCE`` (30%) on
any engine in either mode — or an observability hook costing more than
``OBS_OVERHEAD_LIMIT`` (2%) of the fastest cell, or results diverging
with recording on vs off — fails loudly (exit code 1).

``--store DIR`` measurements never feed the regression gate, and the
``--quick`` gate never touches a store — the gate always measures cold
simulation.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full run
    PYTHONPATH=src python benchmarks/bench_perf.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_perf.py --jobs 4
    PYTHONPATH=src python benchmarks/bench_perf.py --store /tmp/bench-store
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.experiments.configs import ARCHITECTURES, build_processor  # noqa: E402
from repro.experiments.runner import run_matrix  # noqa: E402
from repro.isa.workloads import prepare_program, ref_trace_seed  # noqa: E402

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_perf.json")

#: The default run_matrix perf workload (see measure_matrix).
MATRIX_BENCHMARKS = ("gzip", "twolf")
MATRIX_INSTRUCTIONS = 100_000
MATRIX_SCALE = 0.5

#: Engine ips workload (see measure_engine_ips).
ENGINE_BENCHMARK = "gzip"
ENGINE_INSTRUCTIONS = 30_000
QUICK_INSTRUCTIONS = 8_000

#: Serve latency workload (see measure_serve_latency): one small cell,
#: so the warm request is dominated by service overhead, not payload.
SERVE_INSTRUCTIONS = 3_000

#: Fail --quick when any engine drops below baseline/1.3 (>30% slower).
REGRESSION_TOLERANCE = 1.30

#: Fail --quick when the disabled-mode observability hook costs more
#: than this fraction of even the *fastest* quick-mode cell.  The obs
#: layer instruments at cell boundaries only, so its per-cell cost is
#: a fixed few microseconds regardless of cell size; gating against
#: the quick workload's smallest cell is the strictest version of the
#: "near-zero on the hot path" contract.
OBS_OVERHEAD_LIMIT = 0.02

#: Default worker cap for the parallel matrix measurement.  Fork-server
#: pool setup costs a few hundred milliseconds per measurement; beyond
#: four workers the default matrix's per-worker share is too small for
#: more processes to help, and on a single-CPU host a pool is pure
#: overhead (run_matrix caps the effective worker count at cpu_count,
#: so jobs=1 there and the parallel measurement is skipped).
DEFAULT_JOBS = max(1, min(4, os.cpu_count() or 1))

#: Performance of the seed (pre-optimization) tree on the reference
#: container, measured with exactly the workloads and best-of-N
#: protocol below, together with the calibration workload's duration
#: in the same measurement epoch.  Pinned so the perf trajectory is
#: always reported relative to where it started.
SEED_BASELINE = {
    "engine_ips": {
        "ev8": 117_479,
        "ftb": 96_818,
        "stream": 85_939,
        "trace": 57_696,
    },
    "matrix_serial_seconds": 19.9,
    "calibration_seconds": 0.0889,
}

#: The PR 3 tree (persistent store, pre-accelerator) on the reference
#: container — the baseline the accelerator's ">= 1.5x engine
#: throughput" target is measured against.
PR3_BASELINE = {
    "engine_ips": {
        "ev8": 347_527,
        "ftb": 254_631,
        "stream": 292_124,
        "trace": 176_833,
    },
    "calibration_seconds": 0.07972,
}

#: The PR 4 tree (exec-compiled kernels) on the reference container —
#: the baseline PR 5's ">= 1.15x per-engine throughput" target was
#: measured against.
PR4_BASELINE = {
    "engine_ips": {
        "ev8": 465_204,
        "ftb": 327_756,
        "stream": 398_402,
        "trace": 261_300,
    },
    "calibration_seconds": 0.08269,
}


def _best_of(reps, fn):
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


def _calibration_workload():
    """A fixed, simulator-independent interpreter workload (~100 ms).

    Timing it alongside the real measurements captures how fast the
    *machine* currently runs Python; the regression gate divides that
    drift out, so a globally slow or throttled host does not read as a
    simulator regression (a real hot-path regression does not slow
    this loop, so it still trips the gate).
    """
    d = {}
    acc = 0
    for i in range(600_000):
        k = (i * 2654435761) & 0xFFFF
        acc += d.get(k, 0)
        d[k] = acc & 0xFFFFFF
    return acc


def measure_calibration(reps: int = 3) -> float:
    return _best_of(reps, _calibration_workload)


def _measure_one_engine(program, arch: str, instructions: int,
                        reps: int, engine_mode: str = "accel") -> dict:
    def run_once():
        processor = build_processor(
            arch, program, 8,
            benchmark=ENGINE_BENCHMARK, optimized=True,
            trace_seed=ref_trace_seed(ENGINE_BENCHMARK),
            engine_mode=engine_mode,
        )
        processor.run(instructions)
    seconds = _best_of(reps, run_once)
    return {
        "instructions": instructions,
        "seconds": round(seconds, 4),
        "ips": round(instructions / seconds),
    }


#: The one engine-measurement program image, linked lazily and shared
#: by the warm pass and every engine measurement (full and quick, both
#: modes).  Sharing one image matters beyond link time: the trace
#: records and lazily synthesized block metadata live on the image, so
#: only measurements over the *same* image ride the same warm caches.
_ENGINE_PROGRAM = None


def _engine_program():
    global _ENGINE_PROGRAM
    if _ENGINE_PROGRAM is None:
        _ENGINE_PROGRAM = prepare_program(ENGINE_BENCHMARK, optimized=True,
                                          scale=MATRIX_SCALE)
    return _ENGINE_PROGRAM


def measure_engine_ips(instructions: int, reps: int = 2,
                       engine_mode: str = "accel") -> dict:
    """Simulated-instructions-per-second per engine (gzip, opt, 8-wide)."""
    program = _engine_program()
    return {
        arch: _measure_one_engine(program, arch, instructions, reps,
                                  engine_mode=engine_mode)
        for arch in ARCHITECTURES
    }


def warm_shared_caches(instructions: int) -> None:
    """Run every engine once so shared pure caches reach steady state.

    DOLC hash memos and trace records are shared across processors
    (they memoize pure functions), so whichever measurement runs
    *first* would otherwise pay their construction while later ones
    ride warm — skewing any accel-vs-interp comparison.  One explicit
    warm pass puts every subsequent measurement on the same fully-warm
    footing, which is also the steady state a real sweep runs in.
    """
    program = _engine_program()
    for arch in ARCHITECTURES:
        processor = build_processor(
            arch, program, 8,
            benchmark=ENGINE_BENCHMARK, optimized=True,
            trace_seed=ref_trace_seed(ENGINE_BENCHMARK),
            engine_mode="accel",
        )
        processor.run(instructions)


def _pool_noop() -> int:
    return os.getpid()


def _pool_identity(i: int) -> int:
    return i


def measure_worker_setup(jobs: int, reps: int = 3) -> float:
    """Wall-clock of spinning up (and draining) one worker pool.

    This is the fixed cost ``jobs=N`` must amortize before parallelism
    can win; reporting it explicitly makes "why is jobs=2 not faster
    here?" answerable from the report instead of a mystery.  Measured
    on the same :class:`~repro.exec.pool.ForkServerPool` that
    ``run_matrix`` dispatches through.
    """
    from repro.exec import ForkServerPool, Job

    def spin():
        with ForkServerPool(jobs) as pool:
            pool.run(_pool_noop, [Job(i) for i in range(jobs)])

    return _best_of(reps, spin)


def measure_pool_overhead(n_jobs: int = 200, reps: int = 3) -> dict:
    """Per-job bookkeeping cost of the fault-tolerant pools (µs/job).

    No-op jobs make the pools' own overhead — retry accounting, the
    dispatch loop, a pipe round-trip per job for the forked backend —
    the entire measurement.  Against a real simulation cell (tens of
    milliseconds at minimum) these must be noise; the report states
    them so "did the fault machinery slow the fault-free path?" is
    answerable by inspection.  The forked number includes the one-off
    pool spawn amortized over ``n_jobs``, matching how a sweep pays it.
    """
    from repro.exec import ForkServerPool, Job, SerialPool

    def serial():
        SerialPool().run(_pool_identity,
                         [Job(i, (i,)) for i in range(n_jobs)])

    serial_seconds = _best_of(reps, serial)

    def forked():
        with ForkServerPool(1) as pool:
            pool.run(_pool_identity, [Job(i, (i,)) for i in range(n_jobs)])

    forked_seconds = _best_of(reps, forked)
    return {
        "jobs": n_jobs,
        "serial_us_per_job": round(serial_seconds / n_jobs * 1e6, 1),
        "fork_us_per_job": round(forked_seconds / n_jobs * 1e6, 1),
    }


def measure_matrix(jobs: int, reps: int = 3) -> dict:
    """Wall-clock of the default perf matrix, serial and parallel.

    Best-of-``reps`` per path: single-shot wall-clock on a shared box
    is too noisy to anchor a regression gate on.  The parallel
    measurement runs only when it can possibly win — more than one CPU
    and ``jobs > 1`` — and always ships with the measured per-pool
    setup overhead so the serial/parallel gap is interpretable.
    """
    kwargs = dict(
        benchmarks=MATRIX_BENCHMARKS, widths=(8,),
        instructions=MATRIX_INSTRUCTIONS, scale=MATRIX_SCALE,
    )
    # benchmarks x layouts x widths x architectures
    cells = len(MATRIX_BENCHMARKS) * 2 * 1 * len(ARCHITECTURES)
    serial_seconds = _best_of(reps, lambda: run_matrix(**kwargs))
    effective_jobs = max(1, min(jobs, os.cpu_count() or 1, cells))
    row = {
        "benchmarks": list(MATRIX_BENCHMARKS),
        "instructions": MATRIX_INSTRUCTIONS,
        "scale": MATRIX_SCALE,
        "cells": cells,
        "jobs": jobs,
        "effective_jobs": effective_jobs,
        "serial_seconds": round(serial_seconds, 2),
    }
    if effective_jobs > 1:
        row["worker_setup_seconds"] = round(
            measure_worker_setup(effective_jobs), 3
        )
        row["parallel_seconds"] = round(
            _best_of(reps, lambda: run_matrix(**kwargs, jobs=jobs)), 2
        )
    else:
        # A pool on this host can only add overhead (run_matrix caps
        # workers at cpu_count); record why the measurement is absent.
        row["parallel_skipped"] = (
            f"single effective worker (cpu_count={os.cpu_count()}); "
            "a pool cannot beat the serial path here"
        )
    return row


def measure_obs_hook(reps: int = 3, calls: int = 20_000) -> float:
    """Per-call seconds of the disabled-mode ``obs.observe_cell`` hook.

    This is the *entire* per-cell cost observability adds when no
    flight recorder is attached (the default): a handful of counter
    increments and one histogram observe.  Wall-clock A/B of whole
    runs cannot resolve a few microseconds against seconds of
    simulation, so the gate times the hook itself deterministically
    and divides by a measured cell duration instead.
    """
    from repro import obs

    program = _engine_program()
    processor = build_processor(
        "stream", program, 8,
        benchmark=ENGINE_BENCHMARK, optimized=True,
        trace_seed=ref_trace_seed(ENGINE_BENCHMARK),
    )
    result = processor.run(2_000)

    def hammer():
        for _ in range(calls):
            obs.observe_cell("accel", result, 0.01, 0.01)

    seconds = _best_of(reps, hammer)
    # The hammering inflated the core counters; zero them so a later
    # exposition of this process's registry reads clean.
    obs.reset_metrics()
    return seconds / calls


def check_obs_identity() -> bool:
    """Results must be bit-identical with recording on vs disabled.

    Two storeless runs of a tiny matrix: one with a flight recorder
    attached (events stream to disk), one under ``REPRO_OBS=0``.
    Observability is a window, never an input — any divergence here is
    a bug in the instrumentation, not noise.
    """
    import tempfile

    from repro import obs

    kwargs = dict(benchmarks=("gzip",), widths=(8,),
                  archs=("stream", "ev8"), layouts=(True,),
                  instructions=2_000, scale=0.3)
    root = tempfile.mkdtemp(prefix="bench-obs-")
    prior = os.environ.pop("REPRO_OBS", None)
    try:
        recorder = obs.sweep_recorder(os.path.join(root, "gate.events"))
        try:
            recorded = run_matrix(**kwargs)
        finally:
            if recorder is not None:
                obs.detach(recorder)
        os.environ["REPRO_OBS"] = "0"
        silent = run_matrix(**kwargs)
        return recorded.results == silent.results
    finally:
        if prior is None:
            os.environ.pop("REPRO_OBS", None)
        else:
            os.environ["REPRO_OBS"] = prior
        shutil.rmtree(root, ignore_errors=True)


def _obs_fractions(hook_seconds: float, engines_by_mode: dict) -> dict:
    """Hook cost as a fraction of each mode's fastest measured cell."""
    out = {}
    for mode, engines in engines_by_mode.items():
        fastest = min(row["seconds"] for row in engines.values())
        out[mode] = round(hook_seconds / fastest, 6)
    return out


def measure_serve_latency(reps: int = 5) -> dict:
    """Round-trip request latency through the experiment service.

    An in-process :class:`repro.serve.ExperimentServer` on an ephemeral
    port with a fresh throwaway store answers the same one-cell matrix,
    sent with ``run_matrix(cluster=[address])``, cold (simulated on
    first contact) and warm (pure store hit).  The warm number is the
    service's overhead floor — connection setup, LDJSON framing, the
    admission probe and the result decode; the cold number adds one
    small simulation plus the artifact writes.
    The scheduler runs serially here so the cold number measures the
    service, not fork-pool spin-up (that cost is already reported as
    ``worker_setup_seconds``, and a long-lived daemon keeps its pool
    resident across requests anyway).  Informational only; never feeds
    the regression gate.
    """
    import tempfile

    from repro.serve import ExperimentServer, ServeClient

    root = tempfile.mkdtemp(prefix="bench-serve-")
    kwargs = dict(benchmarks=("gzip",), widths=(8,), archs=("stream",),
                  layouts=(True,), instructions=SERVE_INSTRUCTIONS,
                  warmup=SERVE_INSTRUCTIONS // 3, scale=MATRIX_SCALE)
    try:
        with ExperimentServer(store_root=os.path.join(root, "store"),
                              max_workers=1, use_fork_pool=False) as server:
            client = ServeClient(*server.address)
            fleet = [client.address]
            ping_seconds = _best_of(reps, client.ping)
            t0 = time.perf_counter()
            run_matrix(cluster=fleet, **kwargs)
            cold_seconds = time.perf_counter() - t0
            warm_seconds = _best_of(
                reps, lambda: run_matrix(cluster=fleet, **kwargs)
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "instructions": SERVE_INSTRUCTIONS,
        "ping_ms": round(ping_seconds * 1e3, 2),
        "cold_ms": round(cold_seconds * 1e3, 1),
        "warm_ms": round(warm_seconds * 1e3, 2),
    }


def measure_cluster_latency(reps: int = 3) -> dict:
    """Per-cell dispatch overhead of the cluster pool vs local pools.

    Two in-process :class:`repro.serve.ExperimentServer` "nodes" on
    ephemeral ports with throwaway stores serve the same small matrix
    through ``run_matrix(cluster=...)`` cold (each node simulates its
    cells) and warm (pure store-hit round trips).  The same matrix is
    also run locally, so the report states what fleet dispatch —
    connection setup, one-cell framing, admission probes, result
    decode and ingest bookkeeping — costs per cell on top of the
    local serial pool.  Informational only; never feeds the
    regression gate.
    """
    import tempfile

    from repro.serve import ExperimentServer

    kwargs = dict(benchmarks=("gzip",), widths=(8,),
                  archs=("stream", "ev8"), layouts=(True,),
                  instructions=SERVE_INSTRUCTIONS,
                  warmup=SERVE_INSTRUCTIONS // 3, scale=MATRIX_SCALE)
    cells = 2
    local_seconds = _best_of(reps, lambda: run_matrix(**kwargs))
    root = tempfile.mkdtemp(prefix="bench-cluster-")
    try:
        with ExperimentServer(store_root=os.path.join(root, "a"),
                              max_workers=1,
                              use_fork_pool=False) as node_a, \
                ExperimentServer(store_root=os.path.join(root, "b"),
                                 max_workers=1,
                                 use_fork_pool=False) as node_b:
            fleet = ["%s:%d" % node_a.address, "%s:%d" % node_b.address]
            t0 = time.perf_counter()
            run_matrix(cluster=fleet, **kwargs)
            cold_seconds = time.perf_counter() - t0
            warm_seconds = _best_of(
                reps, lambda: run_matrix(cluster=fleet, **kwargs)
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "instructions": SERVE_INSTRUCTIONS,
        "cells": cells,
        "nodes": 2,
        "local_ms": round(local_seconds * 1e3, 1),
        "cold_ms": round(cold_seconds * 1e3, 1),
        "warm_ms": round(warm_seconds * 1e3, 2),
        # The marginal cost of sending one already-computed cell
        # through the fleet instead of reading it locally.
        "warm_ms_per_cell": round(warm_seconds / cells * 1e3, 2),
        "cold_overhead_ms_per_cell": round(
            (cold_seconds - local_seconds) / cells * 1e3, 1),
    }


def measure_remote_store_latency(reps: int = 3) -> dict:
    """Per-artifact latency of the federated store's three outcomes.

    One in-process daemon holds a fixed-size artifact; a
    :class:`~repro.store.remote.tiered.TieredStore` client measures
    what each read costs: a **local hit** (the artifact already landed
    in the local layer — the steady state), a **peer hit** (local
    miss, remote read-through fill: one round trip plus the base64
    decode, oid re-hash and atomic local put), and a **peer miss**
    (absent everywhere: one round trip that answers ``found: false``
    before the sweep recomputes).  Each peer-hit reading uses a fresh
    local root, since the first fill makes every later read local —
    that is the point of the tier.  Informational only; never feeds
    the regression gate.
    """
    import tempfile

    from repro.serve import ExperimentServer
    from repro.store.remote.tiered import TieredStore
    from repro.store.store import ArtifactStore

    payload = bytes(range(256)) * 256  # 64 KiB, deterministic
    fp = "fe" * 32
    absent_fp = "ab" * 32
    root = tempfile.mkdtemp(prefix="bench-remote-store-")
    tiers = []
    try:
        peer_root = os.path.join(root, "peer")
        with ExperimentServer(store_root=peer_root, max_workers=1,
                              use_fork_pool=False) as server:
            address = "%s:%d" % server.address
            ArtifactStore(peer_root).put("result", fp, payload,
                                         {"bench": True})

            def _tier(name):
                tier = TieredStore(os.path.join(root, name), address,
                                   replicate_async=False)
                tiers.append(tier)
                return tier

            probe = _tier("tier-miss")
            # Absent on both sides: every call pays the round trip.
            miss_seconds = _best_of(
                reps, lambda: probe.get("result", absent_fp))

            fill_times = []
            for i in range(reps):
                tier = _tier(f"tier-fill-{i}")
                t0 = time.perf_counter()
                got = tier.get("result", fp)
                fill_times.append(time.perf_counter() - t0)
                assert got == payload
            # The last fill's tier now holds the artifact locally.
            local_seconds = _best_of(
                reps, lambda: tiers[-1].get("result", fp))
    finally:
        for tier in tiers:
            tier.close(timeout=1.0)
        shutil.rmtree(root, ignore_errors=True)
    return {
        "payload_bytes": len(payload),
        "local_hit_ms": round(local_seconds * 1e3, 3),
        "peer_hit_ms": round(min(fill_times) * 1e3, 2),
        "peer_miss_ms": round(miss_seconds * 1e3, 2),
    }


def measure_store_matrix(store_dir: str, reps: int = 3) -> dict:
    """Warm-vs-cold wall-clock of the default matrix via the store.

    The cold run populates a *fresh* store (the ``bench-store``
    subdirectory of ``store_dir`` is wiped first) and pays the
    serialization cost on top of simulation; the warm runs are pure
    cache-hit replays.  Results stay bit-identical either way — this
    measures the artifact store's payoff, it does not feed the
    regression gate.
    """
    from repro.experiments.runner import reset_program_cache
    from repro.store import ArtifactStore

    root = os.path.join(os.path.abspath(store_dir), "bench-store")
    shutil.rmtree(root, ignore_errors=True)
    kwargs = dict(
        benchmarks=MATRIX_BENCHMARKS, widths=(8,),
        instructions=MATRIX_INSTRUCTIONS, scale=MATRIX_SCALE,
        store=root,
    )
    # Drop the in-process image/trace cache warmed by the earlier
    # matrix measurements, so "cold" genuinely pays program generation,
    # linking and the trace walk — what a fresh process would pay.
    reset_program_cache()
    t0 = time.perf_counter()
    run_matrix(**kwargs)
    cold_seconds = time.perf_counter() - t0
    warm_seconds = _best_of(reps, lambda: run_matrix(**kwargs))
    stats = ArtifactStore(root).stats()
    return {
        "root": root,
        "cold_seconds": round(cold_seconds, 2),
        "warm_seconds": round(warm_seconds, 3),
        "warm_speedup": round(cold_seconds / warm_seconds, 1),
        "objects": stats["objects"],
        "object_bytes": stats["object_bytes"],
    }


def _clamped_drift(calibration: float, baseline_seconds: float) -> float:
    # Drift > 1 means this host is currently slower than it was in the
    # baseline measurement epoch; the baseline would run proportionally
    # slower today, so speedups are computed against the drift-adjusted
    # baseline.  Clamped tightly: beyond ~±30% the calibration is
    # telling us the host is unstable, and inflating the trajectory
    # from a noisy sample is worse than under-reporting it.
    return min(1.3, max(0.85, calibration / baseline_seconds))


def full_run(jobs: int, output: str, store_dir=None) -> dict:
    warm_shared_caches(ENGINE_INSTRUCTIONS)
    calibration = measure_calibration()
    # Best-of-4 for the committed sections: the reference container's
    # clock blips in multi-second throttle windows, and a blip landing
    # inside a best-of-2 pair reads as a phantom per-engine regression.
    # Deeper best-of only sharpens the estimate of the same quantity.
    engines = measure_engine_ips(ENGINE_INSTRUCTIONS, reps=4)
    engines_interp = measure_engine_ips(ENGINE_INSTRUCTIONS, reps=4,
                                        engine_mode="interp")
    quick_engines = measure_engine_ips(QUICK_INSTRUCTIONS, reps=3)
    quick_engines_interp = measure_engine_ips(QUICK_INSTRUCTIONS, reps=3,
                                              engine_mode="interp")
    matrix = measure_matrix(jobs)
    pool_overhead = measure_pool_overhead()
    serve = measure_serve_latency()
    cluster = measure_cluster_latency()
    remote_store = measure_remote_store_latency()
    hook_seconds = measure_obs_hook()
    obs_row = {
        "hook_us_per_cell": round(hook_seconds * 1e6, 2),
        # Fraction of the *fastest quick-mode cell* — the strictest
        # denominator the quick gate will ever divide by.
        "overhead_fraction": _obs_fractions(hook_seconds, {
            "accel": quick_engines,
            "interp": quick_engines_interp,
        }),
        "limit": OBS_OVERHEAD_LIMIT,
        "bit_identical": check_obs_identity(),
    }

    seed_ips = SEED_BASELINE["engine_ips"]
    pr3_ips = PR3_BASELINE["engine_ips"]
    pr4_ips = PR4_BASELINE["engine_ips"]
    seed_matrix = SEED_BASELINE["matrix_serial_seconds"]
    drift = _clamped_drift(calibration, SEED_BASELINE["calibration_seconds"])
    drift_pr3 = _clamped_drift(calibration,
                               PR3_BASELINE["calibration_seconds"])
    drift_pr4 = _clamped_drift(calibration,
                               PR4_BASELINE["calibration_seconds"])
    speedups = {
        "engine_ips_vs_seed": {
            arch: round(engines[arch]["ips"] * drift / seed_ips[arch], 2)
            for arch in engines
        },
        "engine_ips_vs_pr3": {
            arch: round(engines[arch]["ips"] * drift_pr3 / pr3_ips[arch], 2)
            for arch in engines
        },
        "engine_ips_vs_pr4": {
            arch: round(engines[arch]["ips"] * drift_pr4 / pr4_ips[arch], 2)
            for arch in engines
        },
        "accel_vs_interp": {
            arch: round(engines[arch]["ips"]
                        / engines_interp[arch]["ips"], 2)
            for arch in engines
        },
        "single_process_vs_seed": round(
            seed_matrix * drift / matrix["serial_seconds"], 2
        ),
    }
    if "parallel_seconds" in matrix:
        speedups["parallel_vs_seed"] = round(
            seed_matrix * drift / matrix["parallel_seconds"], 2
        )
    report = {
        "schema": 8,
        "calibration_seconds": round(calibration, 5),
        "calibration_drift_vs_seed": round(drift, 3),
        "calibration_drift_vs_pr3": round(drift_pr3, 3),
        "calibration_drift_vs_pr4": round(drift_pr4, 3),
        "engines": engines,
        "engines_interp": engines_interp,
        "quick_engines": quick_engines,
        "quick_engines_interp": quick_engines_interp,
        "matrix": matrix,
        "pool": pool_overhead,
        "serve": serve,
        "cluster": cluster,
        "remote_store": remote_store,
        "obs": obs_row,
        "seed_baseline": SEED_BASELINE,
        "pr3_baseline": PR3_BASELINE,
        "pr4_baseline": PR4_BASELINE,
        "speedups": speedups,
    }
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"wrote {output}")
    for arch, row in engines.items():
        print(f"  {arch:7s} accel {row['ips']:>9,d} instr/s "
              f"({speedups['engine_ips_vs_seed'][arch]:.2f}x seed, "
              f"{speedups['engine_ips_vs_pr4'][arch]:.2f}x PR4, "
              f"{speedups['accel_vs_interp'][arch]:.2f}x interp "
              f"[{engines_interp[arch]['ips']:,d}])")
    print(f"  matrix serial   {matrix['serial_seconds']:6.2f}s "
          f"({speedups['single_process_vs_seed']:.2f}x seed)")
    if "parallel_seconds" in matrix:
        print(f"  matrix jobs={jobs}   {matrix['parallel_seconds']:6.2f}s "
              f"({speedups['parallel_vs_seed']:.2f}x seed, pool setup "
              f"{matrix['worker_setup_seconds']:.2f}s)")
    else:
        print(f"  matrix jobs={jobs}   skipped: {matrix['parallel_skipped']}")
    print(f"  pool overhead   "
          f"{pool_overhead['serial_us_per_job']:.0f}us/job serial, "
          f"{pool_overhead['fork_us_per_job']:.0f}us/job forked "
          f"(no-op jobs; a simulation cell is >=4 orders larger)")
    print(f"  serve latency   ping {serve['ping_ms']:.1f}ms; 1-cell "
          f"matrix cold {serve['cold_ms']:.0f}ms -> warm "
          f"{serve['warm_ms']:.1f}ms (store-hit replay over the wire)")
    print(f"  cluster 2-node  {cluster['cells']}-cell matrix local "
          f"{cluster['local_ms']:.0f}ms, cold {cluster['cold_ms']:.0f}ms "
          f"(+{cluster['cold_overhead_ms_per_cell']:.0f}ms/cell) -> warm "
          f"{cluster['warm_ms_per_cell']:.1f}ms/cell dispatch overhead")
    print(f"  remote store    "
          f"{remote_store['payload_bytes'] // 1024}KiB artifact: local "
          f"hit {remote_store['local_hit_ms']:.2f}ms, peer hit "
          f"{remote_store['peer_hit_ms']:.1f}ms (read-through fill), "
          f"peer miss {remote_store['peer_miss_ms']:.1f}ms")
    print(f"  obs hook        {obs_row['hook_us_per_cell']:.2f}us/cell "
          f"({obs_row['overhead_fraction']['accel'] * 100:.3f}% of the "
          f"fastest accel cell, "
          f"{obs_row['overhead_fraction']['interp'] * 100:.3f}% interp; "
          f"bit-identical on/off: {obs_row['bit_identical']})")
    if store_dir:
        # Measured and reported after the JSON above was written:
        # `output` defaults to the committed baseline, and store timings
        # (plus a host-local root path) are a measurement, not a
        # baseline — see "Artifact store" in benchmarks/README.md.  The
        # row still lands on the returned dict for programmatic callers.
        row = measure_store_matrix(store_dir)
        report["store"] = row
        print(f"  store cold      {row['cold_seconds']:6.2f}s -> warm "
              f"{row['warm_seconds']:6.3f}s "
              f"({row['warm_speedup']:.0f}x cache-hit speedup, "
              f"{row['objects']} objects, {row['object_bytes']:,d} bytes)")
    return report


def quick_run(baseline_path: str) -> int:
    """CI smoke: short measurements in both modes vs the baseline.

    The accelerated and interpreted paths regress independently (a
    kernel-only bug leaves interp untouched and vice versa), so the
    gate measures and compares both.
    """
    warm_shared_caches(QUICK_INSTRUCTIONS)
    currents = {
        "accel": measure_engine_ips(QUICK_INSTRUCTIONS, reps=3),
        "interp": measure_engine_ips(QUICK_INSTRUCTIONS, reps=3,
                                     engine_mode="interp"),
    }
    # The per-engine accel/interp ratio makes a kernel-only regression
    # readable straight off the quick report (the raw ips alone cannot
    # separate "the host is slow" from "the accelerator stopped
    # accelerating").
    print("accel vs interp (quick workload):")
    for arch in currents["accel"]:
        a_ips = currents["accel"][arch]["ips"]
        i_ips = currents["interp"][arch]["ips"]
        print(f"  {arch:7s} accel {a_ips:>9,d} / interp {i_ips:>9,d} "
              f"instr/s = {a_ips / i_ips:.2f}x")
    if not os.path.exists(baseline_path):
        print(f"no baseline at {baseline_path}; nothing to gate against")
        return 0
    with open(baseline_path) as fh:
        report = json.load(fh)
    baselines = {
        "accel": report.get("quick_engines", {}),
        # Schema-1 baselines predate the accelerator; their single
        # quick_engines section was measured on the interpreted path.
        "interp": report.get("quick_engines_interp",
                             report.get("quick_engines", {})),
    }
    # Normalize out machine-speed drift: if the host currently runs the
    # fixed calibration workload at X times the baseline duration, the
    # engine floors scale by X too (clamped so a wildly off calibration
    # can neither mask a real regression nor fail a healthy tree).
    # Asymmetric on purpose: a slower host relaxes the floors, but a
    # "faster" calibration reading never tightens them — calibration
    # and simulator throughput do not track perfectly, and the gate
    # must not fail a healthy tree on a lucky calibration sample.
    drift = 1.0
    base_calib = report.get("calibration_seconds")
    if base_calib:
        drift = min(2.0, max(1.0, measure_calibration() / base_calib))
        print(f"machine drift vs baseline: {drift:.2f}x (floors /= drift)")

    def floor_for(base_ips: float) -> float:
        return base_ips / REGRESSION_TOLERANCE / drift

    suspects = []
    for mode, current in currents.items():
        baseline = baselines[mode]
        for arch, row in current.items():
            base = baseline.get(arch, {}).get("ips")
            if base is None:
                continue
            floor = floor_for(base)
            status = "ok" if row["ips"] >= floor else "suspect"
            print(f"  {mode:6s} {arch:7s} {row['ips']:>9,d} instr/s "
                  f"(baseline {base:,d}, floor {floor:,.0f}) {status}")
            if row["ips"] < floor:
                suspects.append((mode, arch))
    if suspects:
        # A transient load burst can depress one measurement; re-measure
        # the suspects with more repetitions before failing the build.
        names = ", ".join(f"{m}:{a}" for m, a in suspects)
        print(f"re-measuring suspects: {names}")
        program = _engine_program()
        failed = []
        for mode, arch in suspects:
            row = _measure_one_engine(program, arch, QUICK_INSTRUCTIONS,
                                      reps=5, engine_mode=mode)
            base = baselines[mode][arch]["ips"]
            floor = floor_for(base)
            status = "ok" if row["ips"] >= floor else "REGRESSION"
            print(f"  {mode:6s} {arch:7s} {row['ips']:>9,d} instr/s "
                  f"(baseline {base:,d}, floor {floor:,.0f}) {status}")
            if row["ips"] < floor:
                failed.append(f"{mode}:{arch}")
        if failed:
            print(f"perf regression "
                  f">{(REGRESSION_TOLERANCE - 1) * 100:.0f}% "
                  f"on: {', '.join(failed)}")
            return 1

    # Observability gate: the disabled-mode per-cell hook must stay
    # invisible next to even the fastest quick cell, in both engine
    # modes.  Measured directly (microseconds per call) rather than by
    # wall-clock A/B, which cannot resolve 2% under host noise.
    hook_seconds = measure_obs_hook()
    fractions = _obs_fractions(hook_seconds, currents)
    print(f"  obs hook {hook_seconds * 1e6:.2f}us/cell:")
    obs_failed = []
    for mode, fraction in sorted(fractions.items()):
        status = "ok" if fraction < OBS_OVERHEAD_LIMIT else "REGRESSION"
        print(f"    {mode:6s} {fraction * 100:.3f}% of the fastest cell "
              f"(limit {OBS_OVERHEAD_LIMIT * 100:.0f}%) {status}")
        if fraction >= OBS_OVERHEAD_LIMIT:
            obs_failed.append(mode)
    if obs_failed:
        print(f"obs hook overhead exceeds "
              f"{OBS_OVERHEAD_LIMIT * 100:.0f}% of a cell "
              f"on: {', '.join(obs_failed)}")
        return 1
    if not check_obs_identity():
        print("results diverge with observability on vs off "
              "(instrumentation is contaminating the simulation)")
        return 1
    print("  obs on/off bit-identity: ok")
    print("quick perf smoke: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fast engine-only smoke vs the committed "
                             "baseline; fails on >30%% regression")
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help="workers for the parallel matrix measurement "
                             f"(default: min(4, cpu_count) = {DEFAULT_JOBS})")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where the full run writes its JSON report")
    parser.add_argument("--baseline", default=DEFAULT_OUTPUT,
                        help="baseline JSON the --quick mode compares to")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="also measure the warm-vs-cold artifact-store "
                             "matrix under DIR (full runs only; the --quick "
                             "gate always measures cold simulation)")
    args = parser.parse_args(argv)
    if args.quick:
        # The regression gate stays store-free on purpose: a cache hit
        # would mask a real engine regression.
        return quick_run(args.baseline)
    full_run(args.jobs, args.output, store_dir=args.store)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
