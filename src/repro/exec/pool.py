"""Pluggable, fault-tolerant job pools for sweep execution.

``run_matrix`` historically drove a bare ``ProcessPoolExecutor``: one
worker OOM-kill raised ``BrokenProcessPool``, aborted the whole sweep,
and discarded every finished-but-uncollected cell.  This module is the
replacement seam — an abstract :class:`Pool` with two backends behind
one interface (the shape of the vusec instrumentation-infra job pool,
cited in ROADMAP.md, grown toward cluster backends later):

:class:`SerialPool`
    Runs jobs in the calling process, in order.  Still applies the
    retry/backoff/fallback policy (and, where the platform allows,
    ``SIGALRM``-based attempt timeouts), so the serial path and the
    parallel path degrade identically.

:class:`ForkServerPool`
    A process pool built directly on ``multiprocessing`` primitives —
    one dedicated pipe per worker — because fault tolerance needs what
    ``ProcessPoolExecutor`` hides: *which* job each worker holds.  The
    parent therefore knows exactly which cells a crashed worker loses,
    rebuilds just that worker, and re-dispatches just those cells; a
    worker over its attempt deadline is SIGKILLed the same way.  Workers
    are started after the caller pre-links shared images, so the
    existing fork-server amortization (and bit-identical results) carry
    over unchanged.

Failure ladder, per :class:`~repro.exec.policy.FaultPolicy`:

1. an attempt fails (exception / crash / timeout) → bounded retries
   with exponential, deterministically-jittered backoff;
2. the primary attempts are exhausted and the job carries
   ``fallback_args`` → one final attempt with them (``run_matrix`` uses
   this to retry an ``accel`` cell under ``interp``), one warning per
   pool;
3. still failing → the job lands in the pool's failure set; after all
   jobs settle, :class:`~repro.exec.policy.SweepError` names every
   failed cell (everything that completed was already delivered through
   the ``completed`` callback);
4. orthogonally, more than ``max_rebuilds`` worker *crashes* degrade
   the forked pool to serial in-parent execution (one warning) — a host
   that keeps killing workers still finishes its sweep.

Results are delivered twice: through the optional ``completed``
callback the moment each job settles (out of order — this is where
``run_matrix`` persists to the store, so nothing finished is ever lost
to a later failure), and in the dict ``run`` returns.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, \
    Tuple

import multiprocessing
from multiprocessing.connection import wait as _mp_wait

from repro import obs
from repro.common.warnonce import warn_once
from repro.exec import faults
from repro.exec.policy import FaultPolicy, SweepError, backoff_delay

__all__ = ["Job", "Pool", "SerialPool", "ForkServerPool"]


class Job:
    """One unit of work: ``fn(*args)`` under a key.

    ``fallback_args`` — when set, a final attempt made with these after
    the primary args exhaust the retry budget (step 2 of the failure
    ladder).  The pool mutates only the bookkeeping fields
    (``attempt``, ``failures``, ``used_fallback``); construct a fresh
    ``Job`` per ``run``.
    """

    __slots__ = ("key", "args", "fallback_args", "attempt", "failures",
                 "used_fallback")

    def __init__(self, key: Any, args: Tuple = (),
                 fallback_args: Optional[Tuple] = None) -> None:
        self.key = key
        self.args = tuple(args)
        self.fallback_args = (
            tuple(fallback_args) if fallback_args is not None else None
        )
        self.attempt = 0          # number of the next attempt, 0-based
        self.failures: List[str] = []
        self.used_fallback = False


class Pool:
    """Abstract job pool: run jobs under a fault policy."""

    def __init__(self, policy: Optional[FaultPolicy] = None) -> None:
        self.policy = policy or FaultPolicy()
        #: Per-pool warn-once registry (see repro.common.warn_once):
        #: fallback/degradation notices fire once per *pool*, not once
        #: per process.
        self._warn_keys: Set[str] = set()
        #: Utilization surface, uniform across backends: job *attempts*
        #: handed to an execution slot, and attempts that came back
        #: successfully.  Backends with real workers also break these
        #: down per slot (see :meth:`worker_stats`).
        self.jobs_dispatched = 0
        self.jobs_completed = 0

    def worker_stats(self) -> Dict[str, Any]:
        """Dispatch/completion counts, pool-wide and per worker slot.

        The base shape (``workers=[]``) covers in-process backends; the
        forked pool fills ``workers`` with one entry per live worker.
        """
        return {
            "dispatched": self.jobs_dispatched,
            "completed": self.jobs_completed,
            "workers": [],
        }

    def run(
        self,
        fn: Callable,
        jobs: Sequence[Job],
        completed: Optional[Callable[[Job, Any], None]] = None,
    ) -> Dict[Any, Any]:
        """Execute every job; return ``{key: result}``.

        ``completed(job, result)`` fires in the parent as each job
        settles successfully (possibly out of submission order).
        Raises :class:`SweepError` after all jobs settle if any failed.
        """
        raise NotImplementedError

    def take_raw(self, key: Any) -> Optional[bytes]:
        """Pop the encoded bytes a settled job's result arrived as.

        None for results computed by this host's processes; a pool fed
        by serve daemons returns what the daemon shipped, so the caller
        can store it verbatim.
        """
        return None

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # shared failure bookkeeping
    # ------------------------------------------------------------------
    def _warn_fallback(self, job: Job) -> None:
        obs.EXEC_FALLBACKS.inc()
        obs.record_event(
            "fallback", cell=str(job.key), attempts=len(job.failures),
        )
        warn_once(
            "exec.fallback",
            f"repro.exec: cell {job.key} exhausted its "
            f"{self.policy.retries + 1} primary attempt(s); retrying "
            f"once with its fallback arguments",
            stacklevel=3, registry=self._warn_keys,
        )

    def _next_action(self, job: Job, message: str) -> Tuple[str, float]:
        """Record one failed attempt; decide ``(action, delay)``.

        ``action`` is ``"retry"`` (re-run, after ``delay`` seconds),
        ``"fallback"`` (ditto, with the fallback args installed) or
        ``"fail"`` (budget exhausted).
        """
        job.failures.append(message)
        if len(job.failures) <= self.policy.retries:
            job.attempt += 1
            obs.EXEC_RETRIES.inc()
            obs.record_event(
                "retry", cell=str(job.key), attempt=job.attempt,
                error=message,
            )
            return "retry", backoff_delay(self.policy, job.key, job.attempt)
        if job.fallback_args is not None and not job.used_fallback:
            job.used_fallback = True
            job.args = job.fallback_args
            job.attempt += 1
            self._warn_fallback(job)
            return "fallback", backoff_delay(self.policy, job.key,
                                             job.attempt)
        obs.EXEC_JOBS.inc(status="failed")
        obs.record_event(
            "job_failed", cell=str(job.key), attempts=len(job.failures),
            error=message,
        )
        return "fail", 0.0

    def _run_job_inline(
        self,
        fn: Callable,
        job: Job,
        completed: Optional[Callable[[Job, Any], None]],
        results: Dict[Any, Any],
        failures: Dict[Any, List[str]],
    ) -> None:
        """The serial attempt loop (also the forked pool's degraded
        mode): run one job to settlement in the calling process."""
        while True:
            self.jobs_dispatched += 1
            try:
                with _attempt_deadline(self.policy.timeout):
                    faults.before_task(job.key, job.attempt)
                    result = fn(*job.args)
            except Exception as exc:
                message = (f"attempt {job.attempt}: "
                           f"{type(exc).__name__}: {exc}")
                action, delay = self._next_action(job, message)
                if action == "fail":
                    failures[job.key] = job.failures
                    return
                if delay > 0:
                    time.sleep(delay)
                continue
            obs.EXEC_JOBS.inc(status="ok")
            self.jobs_completed += 1
            results[job.key] = result
            if completed is not None:
                completed(job, result)
            return


class _AttemptTimeout(Exception):
    """Raised inside a serial attempt when its SIGALRM deadline fires."""


def _warn_deadline_thread() -> None:
    # Once per process (the global warn-once registry): every further
    # attempt on any thread silently runs deadline-free.
    warn_once(
        "exec.deadline-thread",
        "repro.exec: serial attempt deadlines use SIGALRM, which only "
        "works on the main thread; attempts driven from other threads "
        "run without a deadline (use ForkServerPool where hard "
        "deadlines matter)",
        stacklevel=4,
    )


class _attempt_deadline:
    """Best-effort serial attempt timeout via ``SIGALRM``.

    Only engages on the main thread of a platform with ``SIGALRM`` —
    ``signal.signal`` raises ``ValueError`` anywhere else, and a
    scheduler thread (the ``repro.serve`` daemon drives serial pools
    from worker threads) must degrade to no-deadline with a single
    warning, not crash the attempt.  Nests correctly under an outer
    timer — e.g. a test harness's per-test alarm — by re-arming the
    outer timer's remaining time on exit.
    """

    def __init__(self, timeout: Optional[float]) -> None:
        self._timeout = timeout
        self._armed = False
        self._prev_handler: Any = None
        self._prev_delay = 0.0
        self._started = 0.0

    def __enter__(self) -> "_attempt_deadline":
        if self._timeout is None or not hasattr(signal, "SIGALRM"):
            return self
        if threading.current_thread() is not threading.main_thread():
            _warn_deadline_thread()
            return self

        def _on_alarm(signum: int, frame: Any) -> None:
            raise _AttemptTimeout(
                f"attempt exceeded its {self._timeout}s deadline"
            )

        try:
            self._prev_handler = signal.signal(signal.SIGALRM, _on_alarm)
        except ValueError:
            # Belt and braces: an embedding where the main-thread test
            # above passes but handler installation is still refused.
            _warn_deadline_thread()
            return self
        self._started = time.monotonic()
        self._prev_delay, _ = signal.setitimer(
            signal.ITIMER_REAL, self._timeout
        )
        self._armed = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self._armed:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._prev_handler)
        if self._prev_delay:
            remaining = self._prev_delay - (time.monotonic() - self._started)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001))


class SerialPool(Pool):
    """In-process execution with the full retry/fallback policy.

    The ``timeout`` is enforced with ``SIGALRM`` where available (see
    :class:`_attempt_deadline`); on other platforms or threads a hung
    attempt cannot be preempted — use :class:`ForkServerPool` when hard
    deadlines matter.
    """

    def run(
        self,
        fn: Callable,
        jobs: Sequence[Job],
        completed: Optional[Callable[[Job, Any], None]] = None,
    ) -> Dict[Any, Any]:
        results: Dict[Any, Any] = {}
        failures: Dict[Any, List[str]] = {}
        for job in jobs:
            self._run_job_inline(fn, job, completed, results, failures)
        if failures:
            raise SweepError(failures, completed=len(results))
        return results


# ----------------------------------------------------------------------
# forked worker pool
# ----------------------------------------------------------------------
def _pool_worker_main(conn) -> None:
    """Worker loop: receive ``(key, fn, args, attempt)``, send back
    ``("ok", key, result)`` or ``("err", key, summary, traceback)``."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if message is None:
            return
        key, fn, args, attempt = message
        try:
            faults.before_task(key, attempt)
            result = fn(*args)
        except BaseException as exc:
            try:
                conn.send((
                    "err", key,
                    f"attempt {attempt}: {type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                ))
            except Exception:  # pragma: no cover - reporting best-effort
                pass
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                return
            continue
        try:
            conn.send(("ok", key, result))
        except Exception as exc:
            # The result itself would not pickle/transmit: surface it
            # as a job failure, not a dead worker.
            try:
                conn.send((
                    "err", key,
                    f"attempt {attempt}: result not transmittable: "
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                ))
            except Exception:  # pragma: no cover
                return


class _Worker:
    __slots__ = ("proc", "conn", "job", "deadline", "slot", "dispatched",
                 "completed")

    def __init__(self, proc, conn, slot: int = 0) -> None:
        self.proc = proc
        self.conn = conn
        self.job: Optional[Job] = None
        self.deadline: Optional[float] = None
        #: Stable slot id: a worker rebuilt after a crash inherits the
        #: slot of the worker it replaces (spawn counter modulo
        #: max_workers), so per-slot metrics stay bounded.
        self.slot = slot
        self.dispatched = 0
        self.completed = 0


class ForkServerPool(Pool):
    """Crash-isolating process pool with per-job dispatch visibility.

    Start workers *after* priming any fork-inherited caches; rebuilt
    workers fork from the same parent image, so they inherit the same
    pre-linked state the original workers did.
    """

    def __init__(
        self,
        max_workers: int,
        policy: Optional[FaultPolicy] = None,
        context: Optional[Any] = None,
    ) -> None:
        super().__init__(policy)
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._ctx = context or multiprocessing.get_context()
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._pending: deque = deque()
        self._closed = False
        #: Serializes close/terminate: the serve daemon's watchdog and
        #: its executor can both tear a pool down, and double-joining /
        #: double-closing pipes from two threads must be a no-op, not a
        #: crash.
        self._shutdown_lock = threading.Lock()
        #: Worker crashes absorbed so far (not timeouts — a deliberate
        #: deadline kill must not push a healthy pool toward serial
        #: degradation, where hangs could no longer be preempted).
        self.rebuilds = 0
        self.timeouts = 0
        self.degraded = False
        self._spawned = 0

    # -------------------------------------------------- worker lifecycle
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn,),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn,
                         slot=self._spawned % self.max_workers)
        self._spawned += 1
        self._workers.append(worker)
        self._idle.append(worker)
        return worker

    def _discard(self, worker: _Worker, kill: bool = False) -> None:
        """Remove a worker, optionally SIGKILLing it first."""
        if kill and worker.proc.is_alive():
            try:
                worker.proc.kill()
            except (OSError, ValueError):  # pragma: no cover
                pass
        worker.proc.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if worker in self._workers:
            self._workers.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)

    def _take_workers(self) -> List[_Worker]:
        """Atomically claim every live worker for teardown.

        Exactly one teardown path (close, terminate, or a concurrent
        duplicate of either) receives each worker, so sentinels, joins
        and pipe closes happen once no matter how many paths fire —
        ``close()`` after ``terminate()``, double ``close()``, or a
        watchdog thread racing the run loop's ``__exit__``.
        """
        with self._shutdown_lock:
            self._closed = True
            workers = list(self._workers)
            self._workers.clear()
            self._idle.clear()
        return workers

    def close(self) -> None:
        """Graceful shutdown: sentinel the workers, then reap them.

        Idempotent, and safe after :meth:`terminate` or concurrently
        with it (whichever path claims a worker tears it down).
        """
        workers = self._take_workers()
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass

    def terminate(self) -> None:
        """Hard shutdown (exception paths): kill everything now.

        Idempotent, and safe after or concurrently with :meth:`close`.
        """
        for worker in self._take_workers():
            if worker.proc.is_alive():
                worker.proc.kill()
            worker.proc.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass

    def __exit__(self, exc_type, *rest: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    @property
    def closed(self) -> bool:
        """Whether the pool has been shut down (no further ``run``)."""
        return self._closed

    @property
    def alive_workers(self) -> int:
        """Resident worker processes currently alive (health surface)."""
        return sum(1 for w in self._workers if w.proc.is_alive())

    def worker_stats(self) -> Dict[str, Any]:
        """Pool totals plus one entry per resident worker.

        Pool totals survive worker rebuilds and degradation (they live
        on the pool); the per-worker list reflects only current
        residents, keyed by their stable slot id.
        """
        stats = super().worker_stats()
        stats["workers"] = [
            {
                "slot": w.slot,
                "alive": w.proc.is_alive(),
                "busy": w.job is not None,
                "dispatched": w.dispatched,
                "completed": w.completed,
            }
            for w in sorted(self._workers, key=lambda w: w.slot)
        ]
        return stats

    # -------------------------------------------------- run loop
    def run(
        self,
        fn: Callable,
        jobs: Sequence[Job],
        completed: Optional[Callable[[Job, Any], None]] = None,
    ) -> Dict[Any, Any]:
        if self._closed:
            raise RuntimeError("pool is closed")
        jobs = list(jobs)
        total = len(jobs)
        results: Dict[Any, Any] = {}
        failures: Dict[Any, List[str]] = {}
        pending: deque = deque(jobs)
        #: Exposed to _degrade, which requeues in-flight jobs here.
        self._pending = pending
        delayed: List[Tuple[float, int, Job]] = []
        seq = 0  # heap tiebreaker

        def schedule_failure(job: Job, message: str) -> None:
            nonlocal seq
            action, delay = self._next_action(job, message)
            if action == "fail":
                failures[job.key] = job.failures
                return
            if delay > 0:
                seq += 1
                heapq.heappush(delayed, (time.monotonic() + delay, seq, job))
            else:
                pending.append(job)

        try:
            while len(results) + len(failures) < total:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    pending.append(heapq.heappop(delayed)[2])

                if self.degraded:
                    if pending:
                        self._run_job_inline(fn, pending.popleft(),
                                             completed, results, failures)
                    elif delayed:
                        time.sleep(max(0.0, delayed[0][0] -
                                       time.monotonic()))
                    continue

                while pending and not self.degraded and \
                        (self._idle or
                         len(self._workers) < self.max_workers):
                    if not self._idle:
                        self._spawn()
                    worker = self._idle.pop()
                    if not self._dispatch(worker, fn, pending):
                        continue

                busy = [w for w in self._workers if w.job is not None]
                if not busy:
                    if delayed:
                        time.sleep(max(0.0, delayed[0][0] -
                                       time.monotonic()))
                    # pending non-empty with no busy workers can only
                    # mean every spawn/dispatch just failed; loop and
                    # try again (degradation caps how often).
                    continue

                self._poll(busy, delayed, schedule_failure, completed,
                           results)
        except BaseException:
            self.terminate()
            raise

        if failures:
            raise SweepError(failures, completed=len(results))
        return results

    def _dispatch(self, worker: _Worker, fn: Callable,
                  pending: deque) -> bool:
        """Send the next pending job to ``worker``; False if it died."""
        job = pending.popleft()
        try:
            worker.conn.send((job.key, fn, job.args, job.attempt))
        except (OSError, ValueError):
            # The worker died while idle: the job was never in flight,
            # so it goes straight back; the dead worker still counts as
            # a crash for the degradation ladder.
            pending.appendleft(job)
            self._on_crash(worker, None, lambda *_: None)
            return False
        worker.job = job
        worker.dispatched += 1
        self.jobs_dispatched += 1
        obs.EXEC_WORKER_DISPATCHED.inc(slot=str(worker.slot))
        if self.policy.timeout is not None:
            worker.deadline = time.monotonic() + self.policy.timeout
        return True

    def _poll(
        self,
        busy: List[_Worker],
        delayed: List[Tuple[float, int, Job]],
        schedule_failure: Callable[[Job, str], None],
        completed: Optional[Callable[[Job, Any], None]],
        results: Dict[Any, Any],
    ) -> None:
        """Wait for one event: a result, a crash, a deadline, a retry
        becoming due."""
        now = time.monotonic()
        timeout: Optional[float] = None
        deadlines = [w.deadline for w in busy if w.deadline is not None]
        if deadlines:
            timeout = max(0.0, min(deadlines) - now)
        if delayed:
            due = max(0.0, delayed[0][0] - now)
            timeout = due if timeout is None else min(timeout, due)

        handles: List[Any] = []
        by_handle: Dict[Any, _Worker] = {}
        for worker in busy:
            handles.append(worker.conn)
            by_handle[worker.conn] = worker
            handles.append(worker.proc.sentinel)
            by_handle[worker.proc.sentinel] = worker
        ready = set(_mp_wait(handles, timeout=timeout))

        for worker in busy:
            # job=None: settled earlier in this pass; removed from
            # _workers: torn down by a degradation triggered by an
            # earlier crash in this same pass (its job was requeued).
            if worker.job is None or worker not in self._workers:
                continue
            if worker.conn in ready or worker.conn.poll():
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    self._on_crash(worker, worker.job, schedule_failure)
                    continue
                self._on_message(worker, message, schedule_failure,
                                 completed, results)
            elif worker.proc.sentinel in ready:
                self._on_crash(worker, worker.job, schedule_failure)

        # Deadlines last: a worker that produced its result above has
        # job=None and is exempt even if it was over the line.
        now = time.monotonic()
        for worker in busy:
            if (
                worker.job is not None
                and worker.deadline is not None
                and now >= worker.deadline
                and worker in self._workers
            ):
                self._on_timeout(worker, schedule_failure)

    def _on_message(
        self,
        worker: _Worker,
        message: Tuple,
        schedule_failure: Callable[[Job, str], None],
        completed: Optional[Callable[[Job, Any], None]],
        results: Dict[Any, Any],
    ) -> None:
        job = worker.job
        worker.job = None
        worker.deadline = None
        self._idle.append(worker)
        status, key = message[0], message[1]
        if job is None or key != job.key:  # pragma: no cover - protocol bug
            raise RuntimeError(
                f"pool protocol violation: got {status!r} for {key!r} "
                f"while expecting {getattr(job, 'key', None)!r}"
            )
        if status == "ok":
            obs.EXEC_JOBS.inc(status="ok")
            worker.completed += 1
            self.jobs_completed += 1
            obs.EXEC_WORKER_COMPLETED.inc(slot=str(worker.slot))
            results[key] = message[2]
            if completed is not None:
                completed(job, message[2])
        else:
            schedule_failure(job, message[2])

    def _on_crash(
        self,
        worker: _Worker,
        job: Optional[Job],
        schedule_failure: Callable[[Job, str], None],
    ) -> None:
        self._discard(worker)  # joins, so the exit code is available
        exitcode = worker.proc.exitcode
        self.rebuilds += 1
        obs.EXEC_REBUILDS.inc()
        obs.record_event(
            "worker_crash", exitcode=exitcode,
            cell=str(job.key) if job is not None else None,
        )
        if job is not None:
            worker_desc = (
                f"worker crashed (exit code {exitcode})"
                if exitcode is not None else "worker crashed"
            )
            schedule_failure(job, f"attempt {job.attempt}: {worker_desc}")
        if self.rebuilds > self.policy.max_rebuilds:
            self._degrade()
        # No eager respawn otherwise: the dispatch loop spawns on
        # demand while jobs remain, so a crash at the tail of a sweep
        # does not fork a worker with nothing to do.

    def _on_timeout(self, worker: _Worker,
                    schedule_failure: Callable[[Job, str], None]) -> None:
        job = worker.job
        self.timeouts += 1
        self._discard(worker, kill=True)
        assert job is not None
        obs.EXEC_TIMEOUTS.inc()
        obs.record_event(
            "timeout", cell=str(job.key), timeout=self.policy.timeout,
        )
        schedule_failure(
            job,
            f"attempt {job.attempt}: timed out after "
            f"{self.policy.timeout}s (worker killed)",
        )

    def _degrade(self) -> None:
        """Parallel → serial: the degradation ladder's last rung."""
        self.degraded = True
        obs.EXEC_DEGRADATIONS.inc()
        obs.record_event("degraded", rebuilds=self.rebuilds)
        warn_once(
            "exec.degraded",
            f"repro.exec: {self.rebuilds} worker crashes exceeded "
            f"max_rebuilds={self.policy.max_rebuilds}; finishing the "
            f"sweep serially in the parent process",
            stacklevel=4, registry=self._warn_keys,
        )
        # In-flight jobs go back to the queue without consuming retry
        # budget — their workers are being torn down by us, not failing.
        requeued: List[Job] = []
        for worker in self._workers:
            if worker.job is not None:
                requeued.append(worker.job)
                worker.job = None
        self.terminate()
        self._closed = False  # the run loop continues, serially
        for job in requeued:
            self._pending.appendleft(job)
