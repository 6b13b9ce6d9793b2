"""`repro.obs` — unified metrics, tracing, and flight recording.

Three layers, all stdlib-only so any part of the package can import
this module without cycles or optional dependencies:

* **Metrics** (:mod:`repro.obs.registry`): a process-global registry
  of counters/gauges/histograms with bounded label sets.  The store,
  exec pools, serve daemon, accel engine, and core run loop publish
  into the pre-declared instruments below.  Counter updates are a few
  microseconds and happen only at cell/segment boundaries, so they
  stay on unconditionally — the bench gate
  (``benchmarks/bench_perf.py --quick``) proves the disabled-recorder
  hook costs < 2% of even the fastest quick-mode cell.
* **Events** (:mod:`repro.obs.events`): typed LDJSON events fanned
  out to attached :class:`FlightRecorder` sinks.  With no sink
  attached, :func:`record_event` is a single truthiness check.  Sweep
  runs attach a recorder at ``runs/<sweep-fp>.events`` next to the
  journal; the serve daemon keeps one at ``runs/daemon.events``.
* **Exposition**: :func:`render_prometheus` (served by the daemon's
  ``metrics`` op), ``python -m repro.obs`` / the ``obs`` CLI
  subcommand for recorder files, and :mod:`repro.obs.profiling` for
  per-cell cProfile capture keyed by cell fingerprint.

``REPRO_OBS=0`` (also ``off``/``false``/``no``) disables event
recording and recorder attachment; metrics counters are process-local
arithmetic and keep running.  Nothing consults the environment per
event — only at attach points.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

from .events import (
    DEFAULT_CAPACITY,
    DEFAULT_MAX_BYTES,
    FlightRecorder,
    read_events,
    tail_events,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)

__all__ = [
    "FlightRecorder",
    "MetricsRegistry",
    "attach",
    "detach",
    "attached_recorders",
    "obs_enabled",
    "observe_cell",
    "read_events",
    "record_event",
    "registry",
    "render_prometheus",
    "reset_metrics",
    "tail_events",
]

#: Environment knob: set to ``0``/``off``/``false``/``no`` to disable
#: event recording (recorders are not attached; record_event no-ops).
OBS_ENV = "REPRO_OBS"

_DISABLED_VALUES = frozenset({"0", "off", "false", "no"})

#: Content type of :func:`render_prometheus` output (text exposition
#: format version 0.0.4, the one every Prometheus scraper accepts).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def obs_enabled() -> bool:
    """True unless ``REPRO_OBS`` explicitly disables event recording."""
    value = os.environ.get(OBS_ENV, "")
    return value.strip().lower() not in _DISABLED_VALUES


# ---------------------------------------------------------------------------
# Event sinks
# ---------------------------------------------------------------------------

_SINKS: List[FlightRecorder] = []
_SINKS_LOCK = threading.Lock()


def attach(recorder: FlightRecorder) -> FlightRecorder:
    """Register a recorder to receive every :func:`record_event`."""
    with _SINKS_LOCK:
        if recorder not in _SINKS:
            _SINKS.append(recorder)
    return recorder


def detach(recorder: FlightRecorder) -> None:
    """Unregister a recorder; unknown recorders are ignored."""
    with _SINKS_LOCK:
        try:
            _SINKS.remove(recorder)
        except ValueError:
            pass


def attached_recorders() -> List[FlightRecorder]:
    with _SINKS_LOCK:
        return list(_SINKS)


def record_event(ev: str, **fields: object) -> None:
    """Fan one typed event out to every attached recorder.

    The no-sink fast path is a single truthiness check — safe to call
    from any layer at cell/segment granularity.
    """
    if not _SINKS:
        return
    event: Dict[str, object] = {"ev": ev, "ts": time.time()}
    event.update(fields)
    with _SINKS_LOCK:
        sinks = list(_SINKS)
    for sink in sinks:
        sink.record(event)


def sweep_recorder(path: str) -> Optional[FlightRecorder]:
    """Create-and-attach a recorder, honoring ``REPRO_OBS``.

    Returns ``None`` (and attaches nothing) when observability is
    disabled; callers pair this with :func:`detach` in a finally.
    """
    if not obs_enabled():
        return None
    parent = os.path.dirname(path)
    if parent:
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError:
            pass  # the recorder will degrade to memory-only
    return attach(FlightRecorder(path))


# ---------------------------------------------------------------------------
# Standard instruments
# ---------------------------------------------------------------------------

_R = registry()

# store
STORE_HITS = _R.counter(
    "repro_store_hits_total",
    "Artifacts served from the content-addressed store.", ("kind",))
STORE_MISSES = _R.counter(
    "repro_store_misses_total",
    "Artifact probes that missed (includes hash-verification demotions).",
    ("kind",))
STORE_WRITE_FAILURES = _R.counter(
    "repro_store_write_failures_total",
    "Store writes that failed (store degraded to recompute).")
STORE_GC_RUNS = _R.counter(
    "repro_store_gc_runs_total", "Garbage-collection passes.")
STORE_GC_REMOVED = _R.counter(
    "repro_store_gc_removed_total",
    "Entries removed by gc, by category.", ("what",))

# exec
EXEC_JOBS = _R.counter(
    "repro_exec_jobs_total",
    "Sweep cells finishing in the executor, by outcome.", ("status",))
EXEC_RETRIES = _R.counter(
    "repro_exec_retries_total", "Cell attempts retried after a failure.")
EXEC_FALLBACKS = _R.counter(
    "repro_exec_fallbacks_total",
    "Cells switched to their fallback arguments.")
EXEC_TIMEOUTS = _R.counter(
    "repro_exec_timeouts_total", "Cells killed by the per-job deadline.")
EXEC_REBUILDS = _R.counter(
    "repro_exec_rebuilds_total", "Worker pools rebuilt after a crash.")
EXEC_DEGRADATIONS = _R.counter(
    "repro_exec_degradations_total",
    "Pools degraded to serial in-process execution.")
EXEC_WORKER_DISPATCHED = _R.gauge(
    "repro_exec_worker_dispatched",
    "Job attempts dispatched, by worker slot (slot ids are stable "
    "across rebuilds: a replacement worker inherits its slot).",
    ("slot",))
EXEC_WORKER_COMPLETED = _R.gauge(
    "repro_exec_worker_completed",
    "Job attempts completed successfully, by worker slot.", ("slot",))

# serve
SERVE_REQUESTS = _R.counter(
    "repro_serve_requests_total", "Daemon requests, by op.", ("op",))
SERVE_ADMISSIONS = _R.counter(
    "repro_serve_admissions_total",
    "Matrix requests admitted into the scheduler.")
SERVE_COALESCED = _R.counter(
    "repro_serve_coalesced_total",
    "Cells coalesced onto in-flight identical work.")
SERVE_CELLS = _R.counter(
    "repro_serve_cells_total",
    "Cells resolved by the daemon, by outcome.", ("outcome",))
SERVE_QUEUE_DEPTH = _R.gauge(
    "repro_serve_queue_depth", "Cells waiting in the scheduler backlog.")
SERVE_REQUEST_SECONDS = _R.histogram(
    "repro_serve_request_seconds",
    "Wall-clock latency of daemon matrix requests.")

# cluster
CLUSTER_DISPATCHES = _R.counter(
    "repro_cluster_dispatches_total",
    "Cells dispatched to fleet nodes, by node address.", ("node",))
CLUSTER_REDISPATCHES = _R.counter(
    "repro_cluster_redispatches_total",
    "Cells re-dispatched after a node/transport failure.")
CLUSTER_CELLS = _R.counter(
    "repro_cluster_cells_total",
    "Cluster dispatch outcomes (ok/failed/deadline/net/busy).",
    ("outcome",))
CLUSTER_BREAKER_TRIPS = _R.counter(
    "repro_cluster_breaker_trips_total",
    "Per-node circuit-breaker trips (node declared dead).", ("node",))
CLUSTER_NODE_HEALTH = _R.gauge(
    "repro_cluster_node_health",
    "Node health (3 healthy, 2 suspect, 1 probation, 0 dead).",
    ("node",))
CLUSTER_LOCAL_FALLBACKS = _R.counter(
    "repro_cluster_local_fallbacks_total",
    "Sweeps (or sweep remainders) degraded to a local pool because "
    "the whole fleet was unreachable.")

# remote store (repro.store.remote — the federated tier)
STORE_REMOTE_HITS = _R.counter(
    "repro_store_remote_hits_total",
    "Artifacts filled from a remote peer (verified + written locally).",
    ("peer",))
STORE_REMOTE_MISSES = _R.counter(
    "repro_store_remote_misses_total",
    "Remote probes answered found=false, by peer.", ("peer",))
STORE_REMOTE_INTEGRITY = _R.counter(
    "repro_store_remote_integrity_total",
    "Remote payloads quarantined after oid verification failed "
    "(treated as a miss, never served).", ("peer",))
STORE_REMOTE_ERRORS = _R.counter(
    "repro_store_remote_errors_total",
    "Remote transport failures (refused/reset/timeout/garbage frame).",
    ("peer",))
STORE_REMOTE_REPLICATED = _R.counter(
    "repro_store_remote_replicated_total",
    "Local puts replicated to a peer by the write-behind thread.",
    ("peer",))
STORE_REMOTE_REPLICATION_DROPPED = _R.counter(
    "repro_store_remote_replication_dropped_total",
    "Write-behind entries dropped (oldest-first) on queue overflow.")
STORE_REMOTE_REPLICATION_BACKLOG = _R.gauge(
    "repro_store_remote_replication_backlog",
    "Entries waiting in the write-behind replication queue.")

# accel
ACCEL_KERNEL_COMPILES = _R.counter(
    "repro_accel_kernel_compiles_total",
    "Specialized kernels actually compiled (memo misses).")
ACCEL_FALLBACKS = _R.counter(
    "repro_accel_fallbacks_total",
    "Runs that fell back from accel to the interpreted engine.")

# core run loop
CORE_CELLS = _R.counter(
    "repro_core_cells_total", "Cells simulated, by engine.", ("engine",))
CORE_INSTRUCTIONS = _R.counter(
    "repro_core_instructions_total", "Instructions committed across cells.")
CORE_CYCLES = _R.counter(
    "repro_core_cycles_total", "Cycles simulated across cells.")
CORE_CELL_SECONDS = _R.histogram(
    "repro_core_cell_seconds", "Wall-clock seconds per simulated cell.")

# warnings (fed by repro.common.warn_once)
WARNINGS = _R.counter(
    "repro_warnings_total", "warn_once invocations, by key.", ("key",))


def render_prometheus() -> str:
    """Prometheus text exposition of every registered instrument."""
    return _R.render_prometheus()


def reset_metrics() -> None:
    """Zero every instrument (tests and bench isolation)."""
    _R.reset()


# ---------------------------------------------------------------------------
# Cell-boundary hook
# ---------------------------------------------------------------------------

def observe_cell(
    engine: str,
    result: object,
    wall: float,
    cpu: float,
) -> None:
    """Publish one finished simulation into metrics and the event
    stream.  Called exactly once per cell, at the run boundary —
    never from inside the cycle loop.
    """
    CORE_CELLS.inc(engine=engine)
    instructions = getattr(result, "instructions", 0)
    cycles = getattr(result, "cycles", 0)
    if instructions:
        CORE_INSTRUCTIONS.inc(instructions)
    if cycles:
        CORE_CYCLES.inc(cycles)
    CORE_CELL_SECONDS.observe(wall)
    if _SINKS:
        record_event(
            "cell",
            engine=engine,
            instructions=instructions,
            cycles=cycles,
            wall=round(wall, 6),
            cpu=round(cpu, 6),
        )


# Re-exported constants for recorder construction at call sites.
DEFAULT_RECORDER_CAPACITY = DEFAULT_CAPACITY
DEFAULT_RECORDER_MAX_BYTES = DEFAULT_MAX_BYTES
