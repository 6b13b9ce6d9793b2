"""Run matrices of simulations and collect results.

The harness amortizes program generation: each (benchmark, layout) image
is linked once and shared across architectures and widths, exactly like
the paper simulating the same binaries on every fetch engine.  The
memoized trace record on each image does the same for the dynamic trace.

``run_matrix`` can shard the cross product across worker processes
(``jobs > 1``) at **cell** granularity: each (arch, benchmark, width,
layout) cell is one unit of work pulled from the pool's shared queue,
which load-balances far better than group sharding when the matrix is
uneven (one benchmark, many widths/architectures).  Program images are
amortized fork-server style: the parent pre-links every (benchmark,
layout) image into a module-level cache *before* the pool starts, so on
fork-capable platforms every worker inherits the warm cache and never
links at all; on spawn platforms each worker lazily links each image at
most once.  Every simulation is fully deterministic given its
:class:`RunSpec`, so the parallel path produces bit-identical
:class:`SimulationResult`\\ s to the serial path, in the same order.

Dispatch has one path.  ``run_matrix`` picks one
:class:`~repro.exec.pool.Pool` — a :class:`~repro.exec.pool.SerialPool`,
a :class:`~repro.exec.pool.ForkServerPool` (``jobs > 1``), or a
:class:`~repro.cluster.pool.ClusterPool` (``cluster=``) whose local
fallback is that same serial-or-fork choice — runs the missing cells
through it once, and settles every cell in one completion handler,
which stores a daemon's wire bytes verbatim when the pool has them
(:meth:`~repro.exec.pool.Pool.take_raw`) and encodes the result
otherwise.  Worker crashes lose only the cells that worker held,
failing cells retry under the configured
:class:`~repro.exec.policy.FaultPolicy` (accel cells fall back to the
interpreter before giving up), and a sweep that still cannot finish
raises :class:`~repro.exec.policy.SweepError` naming the failed cells
*after* everything else settled and persisted.

``store=`` extends the amortization *across processes and runs*: cells
whose result fingerprint resolves in the on-disk artifact store (see
:mod:`repro.store`) are served from it, only misses are simulated, and
fresh results are written back, by this process alone.  Images and
their trace records are never stored.  A warm run returns a
:class:`RunMatrixResult` bit-identical to a cold one — the store is a
shortcut, never an approximation.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, \
    Tuple, Union

from repro import obs
from repro.accel import resolve_engine_mode
from repro.common.params import default_machine
from repro.common.warnonce import warn_once
from repro.core.results import SimulationResult
from repro.exec.journal import SweepJournal, sweep_fingerprint
from repro.exec.policy import FaultPolicy
from repro.exec.pool import ForkServerPool, Job, Pool, SerialPool
from repro.experiments.configs import ARCHITECTURES, build_processor
from repro.isa.program import Program
from repro.isa.workloads import prepare_program, ref_trace_seed
from repro.store.cache import ArtifactCache, as_artifact_cache
from repro.store.fingerprint import program_fingerprint, result_fingerprint
from repro.store.store import ArtifactStore


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment matrix."""

    arch: str
    benchmark: str
    width: int
    optimized: bool


@dataclass
class RunMatrixResult:
    """All results of a matrix run, with lookup helpers."""

    instructions: int
    scale: float
    results: Dict[RunSpec, SimulationResult] = field(default_factory=dict)

    def get(
        self, arch: str, benchmark: str, width: int, optimized: bool
    ) -> SimulationResult:
        return self.results[RunSpec(arch, benchmark, width, optimized)]

    def select(
        self,
        arch: Optional[str] = None,
        benchmark: Optional[str] = None,
        width: Optional[int] = None,
        optimized: Optional[bool] = None,
    ) -> List[SimulationResult]:
        """All results matching the given axes, in insertion order."""
        return [
            result for spec, result in self.results.items()
            if (arch is None or spec.arch == arch)
            and (benchmark is None or spec.benchmark == benchmark)
            and (width is None or spec.width == width)
            and (optimized is None or spec.optimized == optimized)
        ]


class ProgramCache:
    """Links each distinct program image at most once.

    Keyed on the **full workload fingerprint** — every input
    :func:`~repro.isa.workloads.prepare_program` consumes (the complete
    spec with its generator seed and ILP profile, scale, layout, base
    address) plus the code version — not on the historical
    ``(benchmark, optimized, scale)`` triple, so spec-bearing callers
    can never alias two distinct programs that share a benchmark name.

    Images and their memoized trace records live only in the process
    that linked them (and the workers it forks): the artifact store
    holds results, never images.
    """

    def __init__(self) -> None:
        self._cache: Dict[str, Program] = {}

    def get(
        self,
        benchmark: str,
        optimized: bool,
        scale: float,
        key: Optional[str] = None,
    ) -> Program:
        """The image for a workload, linked on first use.

        ``key`` is the workload's program fingerprint when the caller
        already computed it.
        """
        if key is None:
            key = program_fingerprint(benchmark, optimized, scale)
        program = self._cache.get(key)
        if program is None:
            program = self._cache[key] = prepare_program(
                benchmark, optimized=optimized, scale=scale
            )
        return program


def matrix_specs(
    benchmarks: Sequence[str],
    widths: Sequence[int],
    archs: Sequence[str],
    layouts: Sequence[bool],
) -> List[RunSpec]:
    """The deterministic cell enumeration of one matrix cross product.

    This order *is* the contract: results, ``progress`` callbacks and
    the serve protocol's cell lists all stream in it, so the serial
    path, the pool path and a daemon answer are comparable
    element-wise.
    """
    return [
        RunSpec(arch, benchmark, width, optimized)
        for benchmark in benchmarks
        for optimized in layouts
        for width in widths
        for arch in archs
    ]


def program_fingerprints(
    specs: Sequence[RunSpec], scale: float
) -> Dict[Tuple[str, bool], str]:
    """Program fingerprint per distinct (benchmark, layout) image."""
    return {
        (spec.benchmark, spec.optimized):
            program_fingerprint(spec.benchmark, spec.optimized, scale)
        for spec in specs
    }


def cell_fingerprints(
    specs: Sequence[RunSpec],
    instructions: int,
    warmup: int,
    scale: float,
    program_fps: Optional[Dict[Tuple[str, bool], str]] = None,
) -> Dict[RunSpec, str]:
    """Result fingerprint per cell — the identity the store, the sweep
    journal and the serve daemon's coalescing all key on."""
    if program_fps is None:
        program_fps = program_fingerprints(specs, scale)
    machines = {
        width: default_machine(width).key_payload()
        for width in {spec.width for spec in specs}
    }
    return {
        spec: result_fingerprint(
            program_fps[(spec.benchmark, spec.optimized)],
            spec.arch, spec.width, instructions, warmup,
            ref_trace_seed(spec.benchmark),
            machine=machines[spec.width],
        )
        for spec in specs
    }


def _run_cell(
    program: Program,
    benchmark: str,
    optimized: bool,
    width: int,
    arch: str,
    instructions: int,
    warmup: int,
    engine_mode: Optional[str] = None,
) -> SimulationResult:
    """Simulate one matrix cell on an already-linked image."""
    processor = build_processor(
        arch, program, width,
        benchmark=benchmark, optimized=optimized,
        trace_seed=ref_trace_seed(benchmark),
        engine_mode=engine_mode,
    )
    return processor.run(instructions, warmup=warmup)


#: Fork-server image cache: primed in the parent before the pool forks
#: (so workers inherit every linked image), or filled lazily per worker
#: under spawn.  Module-level on purpose — it must survive across the
#: tasks a worker executes, and repeated ``run_matrix`` calls in one
#: process (a long-lived experiment server, the perf harness) reuse the
#: linked images and their memoized trace records instead of relinking.
_WORKER_CACHE: Optional[ProgramCache] = None


def _default_cache() -> ProgramCache:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = ProgramCache()
    return _WORKER_CACHE


def reset_program_cache() -> None:
    """Drop the module-level image cache (fresh-process semantics).

    For harnesses that need a genuinely cold measurement inside a warm
    process — the next :func:`run_matrix` relinks every image instead
    of reusing in-memory ones.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = None


def run_cell_job(
    spec: RunSpec,
    instructions: int,
    warmup: int,
    scale: float,
    program_key: Optional[str] = None,
    engine_mode: Optional[str] = None,
) -> SimulationResult:
    """Run one cell :class:`~repro.exec.pool.Job`, whatever pool runs it.

    The image comes from this process's module-level cache: inherited
    from the parent in a forked worker, linked here otherwise.  The job
    never touches the artifact store; the process that owns the pool
    stores every result as it settles.
    """
    program = _default_cache().get(spec.benchmark, spec.optimized, scale,
                                   key=program_key)
    return _run_cell(program, spec.benchmark, spec.optimized, spec.width,
                     spec.arch, instructions, warmup,
                     engine_mode=engine_mode)


def prelink_images(jobs: Sequence[Job]) -> None:
    """Link, once each, the images that cell jobs need.

    The images land in the module-level cache of this process, so call
    it before a fork pool starts: forked workers (including ones rebuilt
    after a crash) inherit the warm images and their trace records and
    never link.  A failed link only warns; the cells then link in the
    workers, where a failure goes through the pool's retries.
    """
    cache = _default_cache()
    seen = set()
    for job in jobs:
        spec, _instructions, _warmup, scale, key, _mode = job.args
        if key in seen:
            continue
        seen.add(key)
        try:
            cache.get(spec.benchmark, spec.optimized, scale, key=key)
        except Exception as exc:
            warnings.warn(
                f"repro.experiments: pre-linking "
                f"{(spec.benchmark, spec.optimized, scale)} failed "
                f"({exc}); workers will link on demand",
                RuntimeWarning, stacklevel=2,
            )


def _result_meta(spec: RunSpec, instructions: int, warmup: int,
                 scale: float) -> dict:
    """Human-readable index metadata for one stored result."""
    return {
        "benchmark": spec.benchmark,
        "arch": spec.arch,
        "width": spec.width,
        "optimized": spec.optimized,
        "instructions": instructions,
        "warmup": warmup,
        "scale": scale,
    }


def _fleet_pool(
    cluster: Union[str, Sequence[str], Any],
    policy: FaultPolicy,
    fallback: Callable[[], Pool],
) -> Pool:
    """The :class:`~repro.cluster.pool.ClusterPool` behind ``cluster=``:
    the caller's own, or one over the listed addresses that falls back
    to ``fallback()`` once every node is unreachable."""
    from repro.cluster.pool import ClusterPool

    if isinstance(cluster, ClusterPool):
        return cluster
    addresses = (
        [a.strip() for a in cluster.split(",") if a.strip()]
        if isinstance(cluster, str)
        else [str(a) for a in cluster]
    )
    return ClusterPool(addresses, policy=policy, fallback_factory=fallback)


def _federate_store(
    store: Optional[Union[ArtifactCache, ArtifactStore, str]],
    peers: Union[str, Sequence[str]],
) -> Tuple[Optional[Union[ArtifactCache, ArtifactStore, str]], Any]:
    """Layer ``peers`` under ``store`` as a :class:`TieredStore`.

    Returns ``(store, owned_tier)``: the possibly-wrapped store, plus
    the tier this run constructed (and must close) — None when the
    caller already brought a federated store or no wrapping applies.
    The caller's own objects are never modified, so a cache passed to
    several runs is federated afresh by each.
    ``peers`` without a store is a warn-once no-op: the federation is
    a cache layer, and there is nothing to layer it on.
    """
    from repro.store.remote import parse_peers
    from repro.store.remote.tiered import TieredStore

    peer_list = parse_peers(peers)
    if not peer_list:
        return store, None
    if store is None:
        warn_once(
            "store.remote.peers-without-store",
            "run_matrix: peers= requires store=...; running without "
            "the federated tier",
            stacklevel=3,
        )
        return None, None
    if isinstance(store, TieredStore):
        return store, None  # caller owns its tier
    if isinstance(store, ArtifactCache):
        if isinstance(store.store, TieredStore):
            return store, None
        # A shallow copy shares the caller's hit/miss counters.
        federated = copy.copy(store)
        federated.store = TieredStore(store.store.root, peer_list)
        return federated, federated.store
    root = store.root if isinstance(store, ArtifactStore) else \
        os.fspath(store)
    tier = TieredStore(root, peer_list)
    return tier, tier


def _attach_store(
    store: Optional[Union[ArtifactCache, ArtifactStore, str]],
) -> Optional[ArtifactCache]:
    """Bind the store for one run, probing writability up front.

    An unwritable store root (read-only mount, path shadowed by a
    regular file, revoked permissions) degrades the run to storeless
    with a single warning per root — detected at attach time in the
    parent, not as a surprise ``OSError`` on the first ``put`` inside a
    worker process.
    """
    if store is None:
        return None
    artifacts = as_artifact_cache(store)
    error = artifacts.store.check_writable()
    if error is None:
        return artifacts
    root = str(artifacts.store.root)
    # Keyed per root: the warning fires once per root, then every
    # matrix against it runs storeless.
    warn_once(
        f"store.unwritable:{root}",
        f"repro.store: store root {root} is not writable ({error}); "
        f"running without the artifact store",
        stacklevel=3,
    )
    return None


def run_matrix(
    benchmarks: Sequence[str],
    widths: Sequence[int] = (8,),
    archs: Sequence[str] = ARCHITECTURES,
    layouts: Sequence[bool] = (False, True),
    instructions: int = 100_000,
    warmup: Optional[int] = None,
    scale: float = 1.0,
    progress: Optional[Callable[[SimulationResult], None]] = None,
    jobs: int = 1,
    store: Optional[Union[ArtifactCache, ArtifactStore, str]] = None,
    engine_mode: Optional[str] = None,
    fault_policy: Optional[FaultPolicy] = None,
    resume: bool = False,
    cluster: Optional[Union[str, Sequence[str], Any]] = None,
    peers: Optional[Union[str, Sequence[str]]] = None,
) -> RunMatrixResult:
    """Simulate the full cross product and return all results.

    ``engine_mode`` selects accelerated ("accel") or interpreted
    ("interp") simulation per cell — results (and therefore store
    fingerprints) are bit-identical either way; None means the
    accelerator.

    ``warmup`` defaults to a third of the instruction budget — the
    predictors and caches train during it, and it is excluded from the
    reported metrics (the paper's fast-forward equivalent).

    ``jobs > 1`` shards individual cells across a process pool (see the
    module docstring for the fork-server image amortization).  ``jobs``
    is a cap: the effective worker count is ``min(jobs, cpu_count,
    cells)`` — oversubscribing a core only adds scheduler thrash, so a
    1-CPU host runs the pool with one worker.  Results are bit-identical
    to the serial path (every cell is an isolated deterministic
    simulation); only wall-clock changes.  ``progress`` is still invoked
    in the main process, per result, in the same deterministic order as
    the serial path.

    ``store`` (a directory path, :class:`~repro.store.store
    .ArtifactStore`, or :class:`~repro.store.cache.ArtifactCache`)
    enables the **incremental** path: each cell's result fingerprint is
    looked up first, only misses are simulated (serially or across the
    pool), and fresh results are written back as they settle.  Linked
    images and trace records stay in this process, as on a storeless
    run.  The returned matrix is bit-identical to a storeless run,
    cached cells included, and ``progress`` still fires once per cell
    in the deterministic order.

    ``fault_policy`` tunes per-cell fault handling (attempt timeout,
    retries with deterministic backoff, worker-rebuild budget — see
    :class:`~repro.exec.policy.FaultPolicy`); both the serial and the
    pooled path run through :mod:`repro.exec`, so they degrade
    identically.  A cell that keeps failing under the accelerator is
    retried once interpreted (with one warning) before it counts as
    failed; if any cell remains failed after every other cell settles,
    :class:`~repro.exec.policy.SweepError` names them — everything
    that completed was already delivered to ``progress`` and persisted
    to the store and its sweep journal, so a re-run with the same
    ``store`` resumes instead of starting over.  ``resume=True``
    (requires ``store``) additionally reports the journaled progress of
    the interrupted sweep on stderr before running the missing cells.

    ``cluster`` shards the *missing* cells across a fleet of serve
    daemons instead of local workers: a comma-separated address string
    (``"host:port,host:port"``), a sequence of addresses (one address
    is one daemon), or an already-constructed
    :class:`~repro.cluster.pool.ClusterPool`.  The local store stays in
    the loop — cached cells are never sent anywhere, remote results
    are ingested byte-for-byte into the store and journal as they
    settle, and ``fault_policy.timeout`` propagates as the per-request
    serve deadline.  Dead or partitioned nodes cost redispatches; an
    entirely unreachable fleet degrades (warn-once) to the local pool
    the run would otherwise have used.

    ``peers`` federates the store (requires ``store=``): admission
    probes read through to the listed ``repro.serve`` daemons'
    stores (see :mod:`repro.store.remote`) and fresh results are
    pushed to them in the background.  Peers are a shortcut exactly
    like the store itself: dead, lying or version-skewed peers cost
    at most recomputes (warn-once, circuit-broken), never a changed
    result.  Workers never open a store; all store traffic, federated
    or local, happens in this process.
    """
    if warmup is None:
        warmup = instructions // 3
    if resume and store is None:
        raise ValueError(
            "resume=True requires an artifact store (store=...)"
        )
    out = RunMatrixResult(instructions=instructions, scale=scale)

    specs = matrix_specs(benchmarks, widths, archs, layouts)

    cached: Dict[RunSpec, SimulationResult] = {}
    result_fps: Dict[RunSpec, str] = {}
    # Computed once per image (not per cell): the fingerprint keys the
    # in-process ProgramCache on storeless runs too.
    program_fps = program_fingerprints(specs, scale)
    owned_tier = None
    if peers:
        store, owned_tier = _federate_store(store, peers)
    artifacts = _attach_store(store)
    if artifacts is not None:
        result_fps = cell_fingerprints(specs, instructions, warmup, scale,
                                       program_fps=program_fps)
        for spec in specs:
            hit = artifacts.result(result_fps[spec])
            if hit is not None:
                cached[spec] = hit

    misses = [spec for spec in specs if spec not in cached]
    policy = fault_policy or FaultPolicy()
    mode = resolve_engine_mode(engine_mode)

    journal: Optional[SweepJournal] = None
    recorder = None
    if artifacts is not None:
        sweep_fp = sweep_fingerprint(result_fps.values())
        journal = SweepJournal(artifacts.store, sweep_fp, len(specs))
        already = journal.read()
        if resume:
            print(
                f"resume: sweep {sweep_fp[:12]}: {len(already)}/"
                f"{len(specs)} cell(s) journaled, {len(cached)} served "
                f"from the store, {len(misses)} to simulate",
                file=sys.stderr,
            )
        # The sweep's flight recorder rides next to its journal.  It is
        # attached *before* any pool starts, so fork-platform workers
        # inherit the sink and their cell events append (O_APPEND, one
        # line per write) to the same file as the parent's crash/retry
        # events.  None when REPRO_OBS disables recording.
        recorder = obs.sweep_recorder(artifacts.store.events_path(sweep_fp))
        if recorder is not None:
            obs.record_event(
                "sweep_begin", sweep=sweep_fp, cells=len(specs),
                cached=len(cached), misses=len(misses), jobs=jobs,
                engine=mode,
            )

    def finish_recording() -> None:
        if recorder is not None:
            obs.record_event(
                "sweep_end", sweep=sweep_fp, completed=len(done),
                cells=len(specs),
            )
            obs.detach(recorder)
        if owned_tier is not None:
            # One final push pass, bounded: results a down peer has not
            # taken count as dropped, and ``cache sync`` repairs them.
            owned_tier.close()

    # Completions arrive out of order from the pool; results and
    # ``progress`` must still stream in deterministic spec order.  The
    # frontier advances through ``specs`` as far as settled cells allow,
    # exactly reproducing the serial ordering.
    done: Dict[RunSpec, SimulationResult] = dict(cached)
    frontier = 0

    def advance() -> None:
        nonlocal frontier
        while frontier < len(specs) and specs[frontier] in done:
            result = done[specs[frontier]]
            out.results[specs[frontier]] = result
            frontier += 1
            if progress is not None:
                progress(result)

    if journal is not None:
        for spec in cached:
            journal.append(result_fps[spec])
    advance()
    if not misses:
        finish_recording()
        return out

    def make_job(spec: RunSpec) -> Job:
        args = (spec, instructions, warmup, scale,
                program_fps[(spec.benchmark, spec.optimized)], mode)
        # An accel cell that exhausts its retries gets one last shot
        # interpreted — results are bit-identical across engines, so a
        # kernel-level fault must not fail the sweep.
        fallback = args[:-1] + ("interp",) if mode == "accel" else None
        return Job(spec, args, fallback_args=fallback)

    cell_jobs = [make_job(spec) for spec in misses]

    def local_pool() -> Pool:
        # The pool this run uses without a fleet, and a fleet's fallback
        # once every node is unreachable: full-fleet degradation then
        # behaves exactly like a plain local run.
        if jobs <= 1 or len(misses) <= 1:
            return SerialPool(policy=policy)
        if multiprocessing.get_start_method() == "fork":
            prelink_images(cell_jobs)
        return ForkServerPool(
            max(1, min(jobs, len(misses), os.cpu_count() or 1)),
            policy=policy,
        )

    pool = local_pool() if cluster is None else \
        _fleet_pool(cluster, policy, local_pool)

    def on_completed(job: Job, result: SimulationResult) -> None:
        # Fires the moment each cell settles, so everything finished is
        # durable (store + journal) before any later failure can abort
        # the sweep.
        spec = job.key
        raw = pool.take_raw(spec)
        if artifacts is not None:
            fp = result_fps[spec]
            meta = _result_meta(spec, instructions, warmup, scale)
            # A daemon's wire bytes are already the store's encoding:
            # persist them verbatim unless they fail to decode here.
            if raw is None or \
                    artifacts.put_result_bytes(fp, raw, meta=meta) is None:
                artifacts.put_result(fp, result, meta=meta)
            journal.append(fp)
        done[spec] = result
        advance()

    try:
        pool.run(run_cell_job, cell_jobs, completed=on_completed)
    finally:
        if pool is not cluster:
            pool.close()
        finish_recording()
    return out
