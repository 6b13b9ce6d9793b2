"""Admission, coalescing and execution for the experiment daemon.

:class:`ExperimentScheduler` is the daemon's core, independent of any
socket: connection handlers :meth:`~ExperimentScheduler.submit` a
validated :class:`~repro.serve.protocol.MatrixQuery` and block on the
returned :class:`MatrixTicket`; a single executor thread drains the
cell queue through a persistent worker pool.  The layering puts every
robustness mechanism this repo already has under one long-lived roof:

**Admission.**  A query decomposes into per-cell result fingerprints
(:func:`~repro.experiments.runner.cell_fingerprints` — the same
identity the store and sweep journals key on).  Cells already in the
store are answered from it without touching the queue.  The rest claim
entries in a :class:`~repro.store.pending.PendingRegistry`: the first
request to want a cold cell *owns* it (one queue entry), every
concurrent identical request *coalesces* onto the in-flight cell — N
clients asking for the same cold matrix cost one simulation per cell.
Admission is refused with :class:`Overloaded` when the owned-cell
backlog would exceed ``queue_limit`` (subscribing to in-flight cells is
always admitted — coalescing is how an overloaded daemon converges),
and with :class:`Draining` once shutdown began.

**Deadlines.**  A request's deadline bounds :meth:`MatrixTicket.wait`,
not the work: on expiry the ticket reports unfinished cells as
``deadline`` (alongside every finished one) and releases its claims, so
queued cells nobody else wants are dropped unrun, while cells already
computing still finish into the store for the next request.

**Pool watchdog.**  Batches run through a resident
:class:`~repro.exec.pool.ForkServerPool` (crash isolation + hard
attempt deadlines), rebuilt on the next batch if a sweep left it
degraded or broken — with exponentially backed-off delay, and after
``max_pool_strikes`` consecutive strikes the scheduler pins itself to a
:class:`~repro.exec.pool.SerialPool` for the rest of its life (one
warning).  The module-level program cache lives in the parent, so pool
churn never relinks images.

**Durability.**  Each settled cell is stored and journaled *before* its
registry cell resolves, so by the time any client sees a result it
would survive SIGKILL; restart recovery is then just the admission
probe finding the cells in the store.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.accel import resolve_engine_mode
from repro.common.warnonce import warn_once
from repro.exec.journal import SweepJournal, sweep_fingerprint
from repro.exec.policy import FaultPolicy, SweepError, backoff_delay
from repro.exec.pool import ForkServerPool, Job, Pool, SerialPool
from repro.experiments.runner import (
    RunSpec,
    _default_cache,
    _result_meta,
    cell_fingerprints,
    matrix_specs,
    prelink_images,
    program_fingerprints,
    run_cell_job,
)
from repro.serve.protocol import (
    CELL_DEADLINE,
    CELL_FAILED,
    CELL_OK,
    MatrixQuery,
)
from repro.store import ArtifactCache, PendingCell, PendingRegistry
from repro.store.store import ArtifactStore

__all__ = ["Draining", "ExperimentScheduler", "MatrixTicket", "Overloaded"]

#: How many times one queued cell may survive a pool-machinery failure
#: before it is failed outright instead of requeued.
MAX_CELL_DISPATCHES = 3


class Overloaded(Exception):
    """Admission refused: the cold-cell backlog is at capacity."""


class Draining(Exception):
    """Admission refused: the scheduler is shutting down."""


class _CellTask:
    """One owned cold cell on the executor queue."""

    __slots__ = ("fp", "spec", "args", "fallback", "cell", "dispatches")

    def __init__(self, fp: str, spec: RunSpec, args: Tuple,
                 fallback: Optional[Tuple], cell: PendingCell) -> None:
        self.fp = fp
        self.spec = spec
        self.args = args
        self.fallback = fallback
        self.cell = cell
        self.dispatches = 0


class CellOutcome:
    """One cell of a ticket's answer."""

    __slots__ = ("spec", "fp", "status", "source", "result", "error")

    def __init__(self, spec: RunSpec, fp: str, status: str, source: str,
                 result: Any = None, error: Optional[str] = None) -> None:
        self.spec = spec
        self.fp = fp
        self.status = status          # CELL_OK | CELL_FAILED | CELL_DEADLINE
        self.source = source          # "store" | "computed" | "coalesced"
        self.result = result
        self.error = error


class MatrixTicket:
    """A submitted request: wait on it for per-cell outcomes.

    ``wait`` returns outcomes in the query's deterministic spec order
    (:func:`~repro.experiments.runner.matrix_specs`), which is what the
    wire protocol streams back.
    """

    def __init__(
        self,
        scheduler: "ExperimentScheduler",
        query: MatrixQuery,
        specs: List[RunSpec],
        fps: Dict[RunSpec, str],
        warm: Dict[RunSpec, Any],
        claims: Dict[RunSpec, Tuple[PendingCell, bool]],
    ) -> None:
        self._scheduler = scheduler
        self.query = query
        self.specs = specs
        self.fps = fps
        self._warm = warm
        self._claims = claims
        self._admitted = time.monotonic()
        self._waited = False

    def _remaining(self) -> Optional[float]:
        if self.query.deadline is None:
            return None
        return max(0.0, self.query.deadline
                   - (time.monotonic() - self._admitted))

    def wait(self) -> List[CellOutcome]:
        """Block (up to the query deadline) and collect every cell.

        Single-shot: releases this ticket's registry claims, so the
        scheduler may drop queued cells nobody else is waiting for.
        """
        if self._waited:
            raise RuntimeError("ticket already waited on")
        self._waited = True
        outcomes: List[CellOutcome] = []
        for spec in self.specs:
            fp = self.fps[spec]
            if spec in self._warm:
                outcomes.append(CellOutcome(
                    spec, fp, CELL_OK, "store", result=self._warm[spec]
                ))
                continue
            cell, owner = self._claims[spec]
            source = "computed" if owner else "coalesced"
            if cell.wait(self._remaining()):
                status, value, error = cell.outcome()
                if status == "ok":
                    outcomes.append(CellOutcome(
                        spec, fp, CELL_OK, source, result=value
                    ))
                else:
                    outcomes.append(CellOutcome(
                        spec, fp, CELL_FAILED, source, error=error
                    ))
            else:
                outcomes.append(CellOutcome(spec, fp, CELL_DEADLINE, source))
            self._scheduler._release_claim(fp, cell)
        return outcomes


class ExperimentScheduler:
    """The daemon's admission/coalescing/execution core (socket-free)."""

    def __init__(
        self,
        store_root: Optional[str] = None,
        max_workers: int = 1,
        queue_limit: int = 256,
        policy: Optional[FaultPolicy] = None,
        max_pool_strikes: int = 3,
        pool_backoff: float = 0.5,
        use_fork_pool: Optional[bool] = None,
        store_peers: object = None,
    ) -> None:
        self.store_root = store_root
        self.max_workers = max(1, max_workers)
        self.queue_limit = queue_limit
        self.policy = policy or FaultPolicy()
        self.max_pool_strikes = max_pool_strikes
        #: Pool-rebuild delay: ``pool_backoff`` doubling per strike,
        #: capped at 30 s, without jitter.
        self._rebuild_backoff = FaultPolicy(
            backoff=pool_backoff, backoff_max=30.0, jitter=0.0,
        )
        if use_fork_pool is None:
            import multiprocessing
            use_fork_pool = \
                multiprocessing.get_start_method(allow_none=False) == "fork"
        self._use_fork_pool = use_fork_pool

        if store_root is not None and store_peers:
            # Federated daemon: admission probes read through to the
            # peers, settled cells replicate write-behind.  Workers
            # keep plain local stores (the parent owns all store I/O
            # that matters: admission happens here and settled results
            # are put here).
            from repro.store.remote.tiered import TieredStore
            store: ArtifactStore = TieredStore(store_root, store_peers)
        elif store_root is not None:
            store = ArtifactStore(store_root)
        self._artifacts: Optional[ArtifactCache] = (
            ArtifactCache(store) if store_root is not None else None
        )
        #: Daemon-lifetime flight recorder at ``runs/daemon.events``
        #: (requests overlap inside shared batches, so per-request
        #: recorders would misattribute cells; one stream per daemon is
        #: the honest granularity).  None when storeless or REPRO_OBS=0.
        self._recorder = (
            obs.sweep_recorder(self._artifacts.store.events_path("daemon"))
            if self._artifacts is not None else None
        )
        self._registry = PendingRegistry()
        self._lock = threading.Condition()
        self._queue: deque = deque()
        #: Owned cells admitted but not yet settled (queued + in-flight)
        #: — the quantity ``queue_limit`` bounds.
        self._backlog = 0
        self._draining = False

        #: fp -> journals awaiting that cell (guarded by _journal_lock).
        self._journals: Dict[str, List[SweepJournal]] = {}
        self._journal_lock = threading.Lock()

        # pool state (executor thread only, except status reads)
        self._pool: Optional[Pool] = None
        self._pool_kind = "none"
        self._pool_strikes = 0
        self._pool_rebuilds = 0
        self._serial_pinned = not self._use_fork_pool
        #: Per-scheduler warn-once registry (one pinned notice per
        #: scheduler, matching the retired per-instance flag).
        self._warn_keys: Set[str] = set()

        # counters (status surface)
        self.started = time.monotonic()
        self.requests = 0
        self.cells_computed = 0
        self.cells_failed = 0
        self.cells_dropped = 0

        self._thread = threading.Thread(
            target=self._executor_loop, name="serve-executor", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, query: MatrixQuery) -> MatrixTicket:
        """Admit one query; raises :class:`Overloaded` / :class:`Draining`.

        Store probing happens before any admission state is touched, so
        a fully-warm request costs no queue capacity at all.
        """
        specs = matrix_specs(query.benchmarks, query.widths, query.archs,
                             query.layouts)
        program_fps = program_fingerprints(specs, query.scale)
        fps = cell_fingerprints(specs, query.instructions, query.warmup,
                                query.scale, program_fps=program_fps)

        warm: Dict[RunSpec, Any] = {}
        if self._artifacts is not None:
            for spec in specs:
                hit = self._artifacts.result(fps[spec])
                if hit is not None:
                    warm[spec] = hit

        cold = [spec for spec in specs if spec not in warm]
        mode = resolve_engine_mode(query.engine_mode)

        with self._lock:
            if self._draining:
                raise Draining("scheduler is draining")
            if query.deadline is not None and query.deadline <= 0:
                raise Overloaded("deadline already expired at admission")
            claims: Dict[RunSpec, Tuple[PendingCell, bool]] = {
                spec: self._registry.claim(fps[spec]) for spec in cold
            }
            owned = [spec for spec, (_, owner) in claims.items() if owner]
            if self._backlog + len(owned) > self.queue_limit:
                for spec, (cell, _) in claims.items():
                    self._registry.release(fps[spec], cell)
                raise Overloaded(
                    f"cold-cell backlog {self._backlog} + {len(owned)} "
                    f"would exceed queue_limit={self.queue_limit}"
                )
            self.requests += 1
            obs.SERVE_ADMISSIONS.inc()
            coalesced = len(cold) - len(owned)
            if coalesced:
                obs.SERVE_COALESCED.inc(coalesced)
            obs.record_event(
                "admit", cells=len(specs), warm=len(warm),
                owned=len(owned), coalesced=coalesced,
            )
            journal = self._make_journal(specs, fps, warm, owned)
            for spec in specs:  # deterministic queue order
                if spec not in claims or not claims[spec][1]:
                    continue  # warm, or coalesced onto another request
                cell, _ = claims[spec]
                args = (spec, query.instructions, query.warmup, query.scale,
                        program_fps[(spec.benchmark, spec.optimized)], mode)
                fallback = (
                    args[:-1] + ("interp",) if mode == "accel" else None
                )
                self._queue.append(
                    _CellTask(fps[spec], spec, args, fallback, cell)
                )
                if journal is not None:
                    with self._journal_lock:
                        self._journals.setdefault(fps[spec], []) \
                            .append(journal)
            self._backlog += len(owned)
            obs.SERVE_QUEUE_DEPTH.set(self._backlog)
            self._lock.notify_all()

        return MatrixTicket(self, query, specs, fps, warm, claims)

    def _make_journal(
        self,
        specs: List[RunSpec],
        fps: Dict[RunSpec, str],
        warm: Dict[RunSpec, Any],
        owned: List[RunSpec],
    ) -> Optional[SweepJournal]:
        """One sweep journal per admitted request (store-backed only).

        Warm cells are journaled immediately; owned cold cells append as
        they settle, so a SIGKILLed daemon leaves behind an honest
        partial journal whose missing lines are exactly the unfinished
        cells.  Fully-warm requests whose journal is thereby complete
        need no registration at all.
        """
        if self._artifacts is None or (not owned and not warm):
            return None
        journal = SweepJournal(
            self._artifacts.store, sweep_fingerprint(fps.values()),
            len(specs),
        )
        journal.read()
        with self._journal_lock:
            for spec in warm:
                journal.append(fps[spec])
        return journal

    def _release_claim(self, fp: str, cell: PendingCell) -> None:
        self._registry.release(fp, cell)

    # ------------------------------------------------------------------
    # executor
    # ------------------------------------------------------------------
    def _executor_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._draining:
                    self._lock.wait()
                if not self._queue and self._draining:
                    break
                batch = list(self._queue)
                self._queue.clear()
            runnable: List[_CellTask] = []
            for task in batch:
                if task.cell.abandoned():
                    # Every subscriber gave up before it started: drop
                    # it unrun (the registry already forgot the cell).
                    self._forget_journals(task.fp)
                    self.cells_dropped += 1
                    obs.SERVE_CELLS.inc(outcome="dropped")
                    self._settle_backlog(1)
                    continue
                task.cell.mark_started()
                runnable.append(task)
            if runnable:
                self._run_batch(runnable)
        self._teardown_pool()
        if self._recorder is not None:
            obs.record_event("drained", requests=self.requests,
                             computed=self.cells_computed)
            obs.detach(self._recorder)

    def _settle_backlog(self, n: int) -> None:
        with self._lock:
            self._backlog -= n
            obs.SERVE_QUEUE_DEPTH.set(self._backlog)

    def _forget_journals(self, fp: str) -> None:
        with self._journal_lock:
            self._journals.pop(fp, None)

    def _journal_settled(self, fp: str) -> None:
        with self._journal_lock:
            for journal in self._journals.pop(fp, []):
                journal.append(fp)

    def _ensure_pool(self) -> Pool:
        if self._pool is not None:
            fork = isinstance(self._pool, ForkServerPool)
            if not fork or not (self._pool.closed or self._pool.degraded):
                return self._pool
            # A sweep left the fork pool degraded or torn down: retire
            # it and rebuild below.
            self._retire_pool(strike=True)
        if self._serial_pinned:
            self._pool = SerialPool(policy=self.policy)
            self._pool_kind = "serial"
            return self._pool
        if self._pool_rebuilds:
            # Exponential backoff between pool builds — a host that
            # keeps killing workers gets geometrically quieter retries.
            delay = backoff_delay(self._rebuild_backoff, "serve.pool",
                                  self._pool_strikes)
            if delay > 0:
                time.sleep(delay)
        self._pool = ForkServerPool(self.max_workers, policy=self.policy)
        self._pool_rebuilds += 1
        self._pool_kind = "fork"
        return self._pool

    def _retire_pool(self, strike: bool) -> None:
        if self._pool is not None:
            try:
                self._pool.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        self._pool = None
        self._pool_kind = "none"
        if not strike:
            return
        self._pool_strikes += 1
        if self._pool_strikes >= self.max_pool_strikes \
                and not self._serial_pinned:
            self._serial_pinned = True
            warn_once(
                "serve.pinned",
                f"repro.serve: {self._pool_strikes} consecutive worker "
                f"pools failed; running all further cells serially in "
                f"the daemon process",
                stacklevel=3, registry=self._warn_keys,
            )

    def _teardown_pool(self) -> None:
        self._retire_pool(strike=False)

    def _run_batch(self, runnable: List[_CellTask]) -> None:
        # Job keys carry the spec (readable logs, fault-plan matching by
        # cell name) and the fp (uniqueness when two requests queue the
        # same spec under different parameters).
        by_key = {(task.spec, task.fp): task for task in runnable}
        jobs = [Job((task.spec, task.fp), task.args,
                    fallback_args=task.fallback) for task in runnable]
        # Freshly forked workers inherit the warm images; resident ones
        # link each new image at most once.  The cache is module-level,
        # so a rebuilt pool never pays linking again.
        prelink_images(jobs)

        def on_completed(job: Job, result: Any) -> None:
            task = by_key[job.key]
            if self._artifacts is not None:
                spec = task.spec
                self._artifacts.put_result(
                    task.fp, result,
                    meta=_result_meta(spec, task.args[1], task.args[2],
                                      task.args[3]),
                )
            self._journal_settled(task.fp)
            self._registry.resolve(task.fp, result)
            self.cells_computed += 1
            obs.SERVE_CELLS.inc(outcome="computed")
            self._settle_backlog(1)

        try:
            pool = self._ensure_pool()
            pool.run(run_cell_job, jobs, completed=on_completed)
        except SweepError as exc:
            # The pool machinery worked; these cells exhausted their
            # per-cell fault budget (retries + engine fallback).
            for key, messages in exc.failures.items():
                self._fail_task(by_key[key],
                                messages[-1] if messages else "failed")
        except Exception as exc:
            # The pool itself broke.  Requeue unsettled cells (bounded
            # per cell) and strike the pool; the next batch rebuilds it.
            self._retire_pool(strike=True)
            requeue: List[_CellTask] = []
            for task in runnable:
                if task.cell.settled:
                    continue
                task.dispatches += 1
                if task.dispatches >= MAX_CELL_DISPATCHES:
                    self._fail_task(
                        task,
                        f"pool failed {task.dispatches} times "
                        f"({type(exc).__name__}: {exc})",
                    )
                else:
                    requeue.append(task)
            if requeue:
                with self._lock:
                    self._queue.extendleft(reversed(requeue))
                    self._lock.notify_all()
            return
        if isinstance(self._pool, ForkServerPool) and self._pool.degraded:
            # The sweep finished but only by degrading to serial: retire
            # the carcass now so status never advertises a dead pool.
            self._retire_pool(strike=True)
        else:
            self._pool_strikes = 0

    def _fail_task(self, task: _CellTask, error: str) -> None:
        self._forget_journals(task.fp)
        self._registry.fail(task.fp, error)
        self.cells_failed += 1
        obs.SERVE_CELLS.inc(outcome="failed")
        obs.record_event(
            "cell_failed", cell=str(task.spec), fp=task.fp, error=error,
        )
        self._settle_backlog(1)

    # ------------------------------------------------------------------
    # health + lifecycle
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The health surface (everything JSON-serializable)."""
        cache = _default_cache()
        trace_records = sum(
            len(program._trace_records) for program in cache._cache.values()
        )
        pool = self._pool
        store: Dict[str, Any] = {"root": self.store_root}
        if self._artifacts is not None:
            store["hits"] = dict(self._artifacts.hits)
            store["misses"] = dict(self._artifacts.misses)
            remote_stats = getattr(self._artifacts.store,
                                   "remote_stats", None)
            if callable(remote_stats):
                store["remote"] = remote_stats()
        with self._lock:
            queue = {
                "backlog": self._backlog,
                "queued": len(self._queue),
                "limit": self.queue_limit,
            }
        return {
            "uptime": time.monotonic() - self.started,
            "draining": self._draining,
            "requests": self.requests,
            "cells": {
                "computed": self.cells_computed,
                "failed": self.cells_failed,
                "dropped": self.cells_dropped,
                "coalesced": self._registry.coalesced,
                "pending": self._registry.depth(),
                # Owned cells handed to the pool but not yet settled —
                # the backlog minus what still sits in the queue.
                "in_flight": max(0, queue["backlog"] - queue["queued"]),
            },
            "queue": queue,
            "pool": {
                "kind": self._pool_kind,
                "workers": self.max_workers,
                "alive": (pool.alive_workers
                          if isinstance(pool, ForkServerPool) else 0),
                "builds": self._pool_rebuilds,
                "strikes": self._pool_strikes,
                "serial_pinned": self._serial_pinned,
                # Uniform utilization surface (attempts dispatched /
                # completed, per slot for worker-backed pools) — the
                # same shape ClusterPool reports per node.
                "utilization": (pool.worker_stats()
                                if pool is not None else None),
            },
            "resident": {
                "programs": len(cache._cache),
                "trace_records": trace_records,
            },
            "store": store,
        }

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, finish (and journal) everything queued.

        Returns True once the executor exited; False on timeout (the
        executor keeps finishing in the background either way).
        """
        with self._lock:
            self._draining = True
            self._lock.notify_all()
        self._thread.join(timeout)
        if self._artifacts is not None:
            close = getattr(self._artifacts.store, "close", None)
            if callable(close):
                close()  # bounded write-behind flush, then stop
        return not self._thread.is_alive()
