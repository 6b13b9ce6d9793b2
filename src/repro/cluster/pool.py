"""A :class:`~repro.exec.pool.Pool` backend that dispatches sweep
cells to a fleet of ``repro.serve`` daemons.

Each job is sent as a one-cell ``matrix`` request through the
daemon's one client, :class:`~repro.serve.client.ServeClient` (the
federated store's peers use the same class); the daemon answers with the store's canonical result
encoding, so a remote cell is **bit-identical** to a local simulation
by construction (and the raw wire bytes are kept so the caller can
ingest them into its own store verbatim, see
:meth:`ClusterPool.take_raw`).

Failure handling, end to end:

* **transport failures** (connection refused/reset, hung daemon,
  protocol garbage) count against the *node* — its
  :class:`~repro.cluster.health.NodeHealth` machine walks healthy →
  suspect → dead and trips a per-node circuit breaker — and the cell
  is **redispatched** to a surviving node without consuming its own
  retry budget (bounded by ``max_redispatches``; past that the
  failures start counting against the cell, so a poisoned fleet still
  terminates).  Redispatch is dedup-safe by construction: results are
  content-fingerprinted in the store, so a cell finished by a "dead"
  node that was merely partitioned is a later cache hit, never a
  conflict — and a late duplicate answer in one run is simply dropped
  (the first settlement won; both answers are bit-identical anyway).
* **remote cell failures** (the daemon's own fault policy gave up) and
  **deadline expiries** consume the cell's normal
  :class:`~repro.exec.policy.FaultPolicy` budget, exactly like a local
  attempt failing; the policy's ``timeout`` propagates as the
  per-request serve deadline.  Retries prefer a *different* node, so
  one slow node cannot capture a cell forever.
* **backpressure** (``overloaded``/``draining``) requeues the cell and
  counts as a node failure — a daemon that keeps refusing admission
  ends up breaker-open until a heartbeat ping finds it willing again.
* with the **whole fleet dead** (every breaker open and
  ``probe_rounds`` of heartbeat pings failed per node) the pool
  degrades — warn-once, obs-evented — to a local pool from
  ``fallback_factory`` and finishes the remaining cells locally, still
  bit-identically.  ``run_matrix`` passes the serial-or-fork choice it
  makes without a fleet, so the fallback stores results exactly like
  a plain local run.

The pool implements the standard :meth:`Pool.run` contract —
``completed`` fires in the caller's thread the moment each cell
settles, and :class:`~repro.exec.policy.SweepError` is raised only
after every cell settles — so ``run_matrix`` drives it exactly like
the local backends.
"""

from __future__ import annotations

import base64
import binascii
import heapq
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.common.warnonce import warn_once
from repro.exec.policy import FaultPolicy, SweepError
from repro.exec.pool import Job, Pool, SerialPool
from repro.serve import protocol
from repro.serve.client import (
    ServeClient,
    ServeDraining,
    ServeError,
    ServeOverloaded,
    ServeUnavailable,
)
from repro.store import serialize
from repro.store.serialize import ArtifactDecodeError

from .health import DEAD, HealthPolicy, NodeHealth

__all__ = ["ClusterNode", "ClusterPool"]


class ClusterNode:
    """One fleet member: an address, a client, and its health."""

    def __init__(self, address: str, client: ServeClient,
                 health_policy: Optional[HealthPolicy] = None) -> None:
        self.address = address
        self.client = client
        self.health = NodeHealth(address, health_policy)

    def __getattr__(self, name: str) -> Any:
        # Health state and stats read through (node.state, node.busy,
        # node.record_success, ...): the pool and its tests treat a
        # node as one object.
        return getattr(self.health, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterNode({self.address!r}, {self.health.state})"


class ClusterPool(Pool):
    """Dispatch sweep-cell jobs across ``repro.serve`` daemons.

    ``addresses`` is a sequence of ``"host:port"`` strings.  Jobs must
    follow the sweep-cell convention of
    :func:`repro.experiments.runner.run_matrix`: ``job.key`` is a
    ``RunSpec`` and ``job.args`` is ``(spec, instructions, warmup,
    scale, program_key, engine_mode)`` — the arguments of the sweep's
    cell function, which are also everything a one-cell matrix query
    needs.  ``fn`` runs only on the local-fallback rung, in the pool
    ``fallback_factory`` builds (a :class:`SerialPool` by default).

    ``node_slots`` bounds concurrent in-flight requests per node
    (daemons parallelize internally; a couple of outstanding requests
    keep a node busy without swamping its admission queue).
    """

    def __init__(
        self,
        addresses: Sequence[str],
        policy: Optional[FaultPolicy] = None,
        health_policy: Optional[HealthPolicy] = None,
        node_slots: int = 2,
        max_redispatches: int = 5,
        probe_rounds: int = 2,
        connect_timeout: float = 3.0,
        client_factory: Optional[Callable[[str], ServeClient]] = None,
        fallback_factory: Optional[Callable[[], Pool]] = None,
    ) -> None:
        super().__init__(policy)
        addresses = [a for a in addresses if a]
        if not addresses:
            raise ValueError("ClusterPool needs at least one node address")
        if client_factory is None:
            def client_factory(address: str) -> ServeClient:
                # The pool owns retries and backoff (that is what the
                # health machine is for); its clients fail fast.
                return ServeClient.at(
                    address, connect_timeout=connect_timeout,
                    connect_retries=0,
                )
        self.nodes: List[ClusterNode] = [
            ClusterNode(address, client_factory(address), health_policy)
            for address in addresses
        ]
        self.node_slots = max(1, node_slots)
        self.max_redispatches = max(0, max_redispatches)
        self.probe_rounds = max(1, probe_rounds)
        self._fallback_factory = fallback_factory or (
            lambda: SerialPool(policy=self.policy)
        )
        #: Wire bytes (store object encoding) per completed remote
        #: cell; absent for cells finished by the local fallback.
        self._raw: Dict[Any, bytes] = {}
        #: How each settled cell was obtained on the remote side
        #: (``store`` / ``computed`` / ``coalesced``; ``local`` for
        #: fallback cells).
        self.sources: Dict[Any, str] = {}
        self.redispatches = 0
        self.degraded_local = False
        self._generation = 0
        self._queue: "queue.Queue[Tuple]" = queue.Queue()

    # ------------------------------------------------------------------
    # public surfaces
    # ------------------------------------------------------------------
    def take_raw(self, key: Any) -> Optional[bytes]:
        """Pop the wire-encoded result bytes for a settled cell.

        ``run_matrix`` feeds these to the store's
        ``put_result_bytes`` ingest path so the local store entry is
        byte-for-byte what the daemon shipped.  None for cells the
        local fallback computed.
        """
        return self._raw.pop(key, None)

    def worker_stats(self) -> Dict[str, Any]:
        """The uniform utilization shape, one entry per node."""
        stats = super().worker_stats()
        stats["workers"] = [node.stats() for node in self.nodes]
        return stats

    def heartbeat(self) -> Dict[str, str]:
        """Ping every node once and update health; address -> state.

        Dead nodes are probed regardless of their breaker backoff —
        this is the explicit "is the fleet back?" poke for status
        surfaces and tests; the run loop itself respects the backoff.
        """
        now = time.monotonic()
        for node in self.nodes:
            try:
                node.client.ping()
            except Exception:
                if node.state == DEAD:
                    node.record_probe(now, alive=False)
                else:
                    node.record_failure(now)
            else:
                if node.state == DEAD:
                    node.record_probe(now, alive=True)
                else:
                    node.record_success()
        return {node.address: node.state for node in self.nodes}

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable,
        jobs: Sequence[Job],
        completed: Optional[Callable[[Job, Any], None]] = None,
    ) -> Dict[Any, Any]:
        jobs = list(jobs)
        total = len(jobs)
        results: Dict[Any, Any] = {}
        failures: Dict[Any, List[str]] = {}
        pending: deque = deque(jobs)
        delayed: List[Tuple[float, int, Job]] = []
        seq = 0
        settled: set = set()
        #: job key -> address that last tried it (retries prefer a
        #: different node).
        last_node: Dict[Any, str] = {}
        #: job key -> transport-failure redispatches so far.
        redispatched: Dict[Any, int] = {}
        self._generation += 1
        generation = self._generation
        for node in self.nodes:
            node.health.busy = 0

        def schedule_failure(job: Job, message: str) -> None:
            nonlocal seq
            action, delay = self._next_action(job, message)
            if action == "fail":
                failures[job.key] = job.failures
                settled.add(job.key)
                return
            if delay > 0:
                seq += 1
                heapq.heappush(
                    delayed, (time.monotonic() + delay, seq, job)
                )
            else:
                pending.append(job)

        def settle_ok(node: ClusterNode, job: Job, result: Any,
                      raw: Optional[bytes], source: str) -> None:
            node.health.completed += 1
            if job.key in settled:
                # A redispatched cell answered twice (the "dead" node
                # was merely slow or partitioned).  Results are
                # bit-identical by construction; the first one won.
                return
            settled.add(job.key)
            obs.EXEC_JOBS.inc(status="ok")
            obs.CLUSTER_CELLS.inc(outcome="ok")
            self.jobs_completed += 1
            results[job.key] = result
            if raw is not None:
                self._raw[job.key] = raw
            self.sources[job.key] = source
            if completed is not None:
                completed(job, result)

        def requeue_transport(node: ClusterNode, job: Job,
                              error: str) -> None:
            count = redispatched.get(job.key, 0) + 1
            redispatched[job.key] = count
            if count > self.max_redispatches:
                # A cell the whole fleet keeps dropping on the floor:
                # start charging its own budget so the sweep terminates.
                schedule_failure(
                    job, f"attempt {job.attempt}: transport: {error}"
                )
                return
            self.redispatches += 1
            obs.CLUSTER_REDISPATCHES.inc()
            obs.record_event(
                "cluster_redispatch", cell=str(job.key),
                node=node.address, error=error,
            )
            pending.appendleft(job)

        def handle(message: Tuple) -> None:
            gen, kind, node, job, payload = message
            if gen != generation:
                return  # a straggler thread from a previous run
            node.health.busy -= 1
            now = time.monotonic()
            if kind == "ok":
                result, raw, source = payload
                node.record_success()
                settle_ok(node, job, result, raw, source)
                return
            last_node[job.key] = node.address
            if kind == "cellfail":
                # The *node* worked; the cell itself failed remotely.
                node.record_success()
                obs.CLUSTER_CELLS.inc(outcome="failed")
                schedule_failure(
                    job, f"attempt {job.attempt}: remote: {payload}"
                )
            elif kind == "deadline":
                node.record_success()
                obs.CLUSTER_CELLS.inc(outcome="deadline")
                schedule_failure(
                    job,
                    f"attempt {job.attempt}: remote deadline: {payload}",
                )
            else:  # "net" / "busy"
                node.record_failure(now)
                obs.CLUSTER_CELLS.inc(outcome=kind)
                requeue_transport(node, job, str(payload))

        def pick_node(job: Job) -> Optional[ClusterNode]:
            candidates = [
                node for node in self.nodes
                if node.usable() and node.health.busy < self.node_slots
            ]
            if not candidates:
                return None
            avoid = last_node.get(job.key)
            preferred = [n for n in candidates if n.address != avoid]
            pool = preferred or candidates
            # Least-loaded, then least-used: spreads a fresh sweep
            # across the fleet instead of saturating node one first.
            return min(
                pool,
                key=lambda n: (n.health.busy, n.health.dispatched),
            )

        def in_flight() -> int:
            return sum(node.health.busy for node in self.nodes)

        while len(results) + len(failures) < total:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                pending.append(heapq.heappop(delayed)[2])

            # Heartbeat-probe dead nodes whose breaker backoff expired.
            for node in self.nodes:
                if node.due_for_probe(now):
                    self._probe(node)

            while pending:
                node = pick_node(pending[0])
                if node is None:
                    break
                self._dispatch(generation, node, pending.popleft())

            if not in_flight() and not pending:
                if delayed:
                    time.sleep(
                        max(0.0, delayed[0][0] - time.monotonic())
                    )
                    continue
                continue  # everything settled; loop condition exits

            if pending and not in_flight():
                # Work to do, nowhere to send it: every node is
                # breaker-open.  Wait out the earliest probe, and once
                # each node has failed enough heartbeats, give up on
                # the fleet and finish locally.
                if all(n.failed_probes >= self.probe_rounds
                       for n in self.nodes):
                    remaining = list(pending)
                    pending.clear()
                    remaining.extend(item[2] for item in delayed)
                    delayed.clear()
                    self._fallback_local(
                        fn, remaining, completed, results, failures,
                        settled,
                    )
                    continue
                next_probe = min(
                    (n.retry_at for n in self.nodes if n.state == DEAD),
                    default=now + 0.25,
                )
                time.sleep(min(1.0, max(0.0, next_probe - now)))
                continue

            # Wait for one completion (or a retry/probe becoming due).
            timeout = 0.25
            if delayed:
                timeout = min(
                    timeout, max(0.0, delayed[0][0] - time.monotonic())
                )
            try:
                handle(self._queue.get(timeout=max(0.01, timeout)))
            except queue.Empty:
                pass
            # Drain whatever else arrived while we were handling.
            while True:
                try:
                    handle(self._queue.get_nowait())
                except queue.Empty:
                    break

        if failures:
            raise SweepError(failures, completed=len(results))
        return results

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------
    def _dispatch(self, generation: int, node: ClusterNode,
                  job: Job) -> None:
        node.health.busy += 1
        node.health.dispatched += 1
        self.jobs_dispatched += 1
        obs.CLUSTER_DISPATCHES.inc(node=node.address)
        thread = threading.Thread(
            target=self._request_cell,
            args=(generation, node, job),
            name=f"cluster-dispatch-{node.address}",
            daemon=True,
        )
        thread.start()

    def _request_cell(self, generation: int, node: ClusterNode,
                      job: Job) -> None:
        """One remote cell round trip; runs on a dispatch thread."""
        spec, instructions, warmup, scale, _program_key, mode = job.args
        query = protocol.MatrixQuery(
            benchmarks=(spec.benchmark,),
            widths=(spec.width,),
            archs=(spec.arch,),
            layouts=(spec.optimized,),
            instructions=instructions,
            warmup=warmup,
            scale=scale,
            engine_mode=mode,
            deadline=self.policy.timeout,
        )
        put = self._queue.put
        try:
            response = node.client.matrix(query)
        except (ServeOverloaded, ServeDraining) as exc:
            put((generation, "busy", node, job, str(exc)))
            return
        except ServeUnavailable as exc:
            put((generation, "net", node, job, str(exc)))
            return
        except ServeError as exc:
            # Garbage frames, response timeouts and any other error
            # code: the node is not speaking the protocol usefully —
            # treat it as sick.
            put((generation, "net", node, job, str(exc)))
            return
        except Exception as exc:  # pragma: no cover - defensive
            put((generation, "net", node, job,
                 f"{type(exc).__name__}: {exc}"))
            return
        cells = response.get("cells")
        if not isinstance(cells, list) or len(cells) != 1:
            put((generation, "net", node, job,
                 "daemon answered a malformed one-cell matrix"))
            return
        cell = cells[0]
        wire = (cell.get("arch"), cell.get("benchmark"),
                cell.get("width"), cell.get("optimized"))
        want = (spec.arch, spec.benchmark, spec.width, spec.optimized)
        if wire != want:
            put((generation, "net", node, job,
                 f"daemon answered cell {wire}, wanted {want}"))
            return
        status = cell.get("status")
        if status == protocol.CELL_OK:
            try:
                raw = base64.b64decode(
                    str(cell.get("result", "")).encode("ascii"),
                    validate=True,
                )
                result = serialize.load_result(raw)
            except (ValueError, binascii.Error,
                    ArtifactDecodeError) as exc:
                # Undecodable payload: a daemon of a different code
                # version.  Its answers cannot be trusted for
                # bit-identity — poison the node, not the cell.
                put((generation, "net", node, job,
                     f"undecodable result payload: {exc}"))
                return
            put((generation, "ok", node, job,
                 (result, raw, str(cell.get("source", "computed")))))
        elif status == protocol.CELL_DEADLINE:
            put((generation, "deadline", node, job,
                 f"not finished within {self.policy.timeout}s"))
        else:
            put((generation, "cellfail", node, job,
                 str(cell.get("error") or "failed")))

    def _probe(self, node: ClusterNode) -> None:
        """One heartbeat ping against a breaker-open node."""
        now = time.monotonic()
        try:
            node.client.ping()
        except Exception as exc:
            node.record_probe(now, alive=False)
            obs.record_event(
                "cluster_probe", node=node.address, alive=False,
                error=str(exc),
            )
        else:
            node.record_probe(now, alive=True)
            obs.record_event(
                "cluster_probe", node=node.address, alive=True,
            )

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _fallback_local(
        self,
        fn: Callable,
        jobs: List[Job],
        completed: Optional[Callable[[Job, Any], None]],
        results: Dict[Any, Any],
        failures: Dict[Any, List[str]],
        settled: set,
    ) -> None:
        """The ladder's last rung: finish the remainder on this host."""
        self.degraded_local = True
        obs.CLUSTER_LOCAL_FALLBACKS.inc()
        obs.record_event(
            "cluster_degraded",
            nodes=[node.address for node in self.nodes],
            remaining=len(jobs),
        )
        warn_once(
            "cluster.unreachable",
            f"repro.cluster: no fleet node reachable "
            f"({', '.join(node.address for node in self.nodes)}); "
            f"finishing {len(jobs)} remaining cell(s) with a local pool",
            stacklevel=5, registry=self._warn_keys,
        )

        def local_completed(job: Job, result: Any) -> None:
            # Recorded here, not from the return dict: the local pool
            # raises SweepError *after* delivering completions, and
            # those cells must count as settled either way.
            settled.add(job.key)
            results[job.key] = result
            self.sources[job.key] = "local"
            if completed is not None:
                completed(job, result)

        local = self._fallback_factory()
        try:
            local.run(fn, jobs, completed=local_completed)
        except SweepError as exc:
            failures.update(exc.failures)
            settled.update(exc.failures)
        finally:
            # Local attempts count toward the pool-wide utilization
            # totals (per-node stats stay remote-only).
            self.jobs_dispatched += local.jobs_dispatched
            self.jobs_completed += local.jobs_completed
            local.close()

    def close(self) -> None:
        """Nothing persistent to tear down (connections are per
        request); straggler dispatch threads die with the process."""
