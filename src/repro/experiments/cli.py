"""Command-line entry point: regenerate any paper figure or table.

Examples::

    repro-experiments fig8 --widths 2 4 8 --instructions 100000
    repro-experiments fig9
    repro-experiments table1
    repro-experiments table3
    repro-experiments ablations --benchmark gzip
    repro-experiments fig9 --profile stream   # cProfile one cell

    repro-experiments fig8 --store ~/.repro-store   # incremental runs
    repro-experiments fig8 --store DIR --resume     # finish an
                                                    # interrupted sweep
    repro-experiments fig9 --timeout 300 --retries 1  # fault policy
    repro-experiments cache stats                   # store maintenance
    repro-experiments cache verify
    repro-experiments cache gc --max-bytes 500000000
    repro-experiments cache sync HOST:PORT          # anti-entropy pass
    repro-experiments cache verify --peers HOST:PORT
    repro-experiments fig8 --store DIR --store-peers HOST:PORT
    repro-experiments obs summary                   # flight recorder

``--store DIR`` (default: the ``REPRO_STORE`` environment variable)
points every matrix-driven command at a persistent artifact store:
cells whose fingerprints resolve are served from disk, only misses are
simulated, and fresh results are written back — so re-rendering a
figure against a warm store takes seconds, not minutes.
The ``cache`` subcommand inspects (``stats``), integrity-checks
(``verify`` — re-hashes every entry) and prunes (``gc`` — drops
corrupt entries and stale temp files and journals, optionally enforces
a size cap) that store.

``--profile [ARCH]`` short-circuits the command: instead of the full
matrix it runs one representative cell (the first requested benchmark,
optimized layout, the first requested width) under :mod:`cProfile` and
prints the top-20 functions by cumulative time — so performance PRs can
cite before/after profiles instead of guessing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.exec.policy import FaultPolicy
from repro.experiments import ablations
from repro.experiments.figures import figure8_text, figure9_text
from repro.experiments.runner import run_matrix
from repro.experiments.tables import table1_text, table3_text
from repro.isa.workloads import SPEC_BENCHMARKS
from repro.serve.client import (
    ServeClient,
    ServeError,
    StorePeerUnusable,
    address_list,
)
from repro.store.remote import PEERS_ENV, parse_peers
from repro.store.store import STORE_ENV, ArtifactStore, default_store_root


def _add_store(parser: argparse.ArgumentParser) -> None:
    # Default None so an explicit flag is distinguishable from the
    # $REPRO_STORE fallback (filled in after parsing).
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="artifact store directory for incremental runs "
             f"(default: ${STORE_ENV})",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmarks", nargs="*", default=list(SPEC_BENCHMARKS),
        help="benchmark subset (default: all eleven)",
    )
    parser.add_argument("--instructions", type=int, default=90_000)
    parser.add_argument("--scale", type=float, default=0.6,
                        help="code footprint scale factor")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation matrix "
                             "(results are identical to --jobs 1)")
    parser.add_argument(
        "--no-accel", dest="engine_mode", action="store_const",
        const="interp", default=None,
        help="run the interpreted simulation paths instead of the "
             "exec-compiled kernels (results are bit-identical)",
    )
    _add_store(parser)
    parser.add_argument(
        "--cluster", metavar="HOST:PORT,HOST:PORT", default=None,
        type=address_list,
        help="shard missing cells across a fleet of repro.serve "
             "daemons (bit-identical results; dead or partitioned "
             "nodes are redispatched around, and a fully unreachable "
             "fleet falls back to local execution)",
    )
    parser.add_argument(
        "--store-peers", metavar="HOST:PORT[,...]", default=None,
        type=address_list,
        help="federate the store with these repro.serve daemons: "
             "misses read through to them, fresh results replicate "
             "back (requires --store; default: $REPRO_STORE_PEERS; "
             "bit-identical results even with every peer down)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell attempt deadline; an over-deadline worker is "
             "killed and the cell retried (default: no deadline)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="re-run a failed/crashed/timed-out cell up to N times "
             "before it fails the sweep (default: 2)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="report the journaled progress of an interrupted sweep and "
             "simulate only its missing cells (requires a store)",
    )
    parser.add_argument("--profile", nargs="?", const="stream",
                        metavar="ARCH", default=None,
                        help="profile one cell (ARCH, first benchmark, "
                             "optimized layout) under cProfile and print "
                             "the top-20 cumulative entries instead of "
                             "running the command")
    parser.add_argument("--profile-dir", metavar="DIR", default=None,
                        help="with --profile: also dump the raw pstats "
                             "to DIR/<cell-fingerprint>.pstats for "
                             "offline comparison")
    parser.add_argument("--quiet", action="store_true")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate figures/tables of 'Fetching Instruction "
                    "Streams' (MICRO-35, 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig8 = sub.add_parser("fig8", help="Figure 8: IPC vs pipe width")
    p_fig8.add_argument("--widths", nargs="*", type=int, default=[2, 4, 8])
    _add_common(p_fig8)

    p_fig9 = sub.add_parser("fig9", help="Figure 9: per-benchmark IPC")
    _add_common(p_fig9)

    p_t1 = sub.add_parser("table1", help="Table 1: fetch unit sizes")
    _add_common(p_t1)

    p_t3 = sub.add_parser("table3", help="Table 3: mispred + fetch IPC")
    _add_common(p_t3)

    p_abl = sub.add_parser("ablations", help="design-choice ablations")
    p_abl.add_argument("--benchmark", default="gzip")
    _add_common(p_abl)

    p_cache = sub.add_parser(
        "cache", help="artifact store maintenance "
                      "(stats/verify/gc/sync)"
    )
    p_cache.add_argument("action", choices=("stats", "verify", "gc",
                                            "sync"))
    p_cache.add_argument("peers", nargs="?", default=None,
                         metavar="HOST:PORT[,...]", type=address_list,
                         help="sync: serve daemons to reconcile with "
                              "(also usable positionally for "
                              "stats/verify)")
    _add_store(p_cache)
    p_cache.add_argument("--peers", dest="peers_opt", default=None,
                         metavar="HOST:PORT[,...]", type=address_list,
                         help="stats/verify: add a remote section / "
                              "cross-check shared fingerprints against "
                              "these peers (default: "
                              "$REPRO_STORE_PEERS)")
    p_cache.add_argument("--direction", choices=("push", "pull", "both"),
                         default="both",
                         help="sync: transfer direction (default: both)")
    p_cache.add_argument("--sample", type=int, default=16, metavar="N",
                         help="verify --peers: shared fingerprints "
                              "cross-checked per kind per peer "
                              "(default: 16)")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="gc: evict least-recently-written entries "
                              "until their payloads fit this many bytes")
    p_cache.add_argument("--journal-days", type=float, default=None,
                         metavar="N",
                         help="gc: drop sweep journals untouched for N "
                              "days even when incomplete (default: 30)")
    p_cache.add_argument("--dry-run", action="store_true",
                         help="gc: report what would be deleted, delete "
                              "nothing")

    p_obs = sub.add_parser(
        "obs", help="inspect flight-recorder event files "
                    "(dump/tail/summary; see python -m repro.obs)"
    )
    p_obs.add_argument("obs_args", nargs=argparse.REMAINDER,
                       help="arguments for repro.obs "
                            "(e.g. 'summary', 'tail PATH -n 50')")

    args = parser.parse_args(argv)
    if args.command == "obs":
        from repro.obs.inspect import main as obs_main
        return obs_main(args.obs_args)
    store_flag_given = args.store is not None
    if args.store is None:
        args.store = default_store_root()
    if args.command == "cache":
        args.store_peers = args.peers or args.peers_opt
    if args.store_peers is None:
        args.store_peers = os.environ.get(PEERS_ENV) or None
        if args.store_peers is not None:
            try:
                address_list(args.store_peers)
            except argparse.ArgumentTypeError as exc:
                parser.error(f"${PEERS_ENV}: {exc}")
    t0 = time.time()

    if args.command == "cache":
        return _cache_command(args)

    fault_policy = None
    if args.timeout is not None or args.retries is not None:
        kwargs = {}
        if args.timeout is not None:
            kwargs["timeout"] = args.timeout
        if args.retries is not None:
            kwargs["retries"] = args.retries
        fault_policy = FaultPolicy(**kwargs)
    if args.resume and not args.store:
        print(f"--resume needs an artifact store: pass --store DIR or "
              f"set ${STORE_ENV}", file=sys.stderr)
        return 2

    if args.profile is not None:
        if store_flag_given:
            print("note: --store is ignored by --profile "
                  "(single-cell profiling run)", file=sys.stderr)
        return _profile_cell(args)

    if args.command in ("table1", "ablations"):
        # These commands drive their own serial simulation loops rather
        # than a run_matrix cross product; don't let the flags silently
        # promise parallelism or caching they do not deliver.  (Only an
        # *explicit* --store warns: a mere $REPRO_STORE in the
        # environment is not a request these commands are declining.)
        for flag, value in (("--jobs", args.jobs > 1),
                            ("--store", store_flag_given),
                            ("--timeout/--retries", fault_policy is not None),
                            ("--resume", args.resume),
                            ("--cluster", args.cluster is not None),
                            ("--store-peers",
                             args.store_peers is not None)):
            if value:
                print(f"note: {flag} is ignored by {args.command} "
                      f"(serial simulation sweep)", file=sys.stderr)
    if args.command == "table1" and args.engine_mode is not None:
        # Table 1 walks the trace directly (no processor), so there is
        # no engine to accelerate or interpret.
        print("note: --no-accel is ignored by table1 "
              "(trace walk, no simulation)", file=sys.stderr)

    def progress(result) -> None:
        if not args.quiet:
            print(f"[{time.time() - t0:6.0f}s] {result.summary()}",
                  file=sys.stderr, flush=True)

    matrix_kwargs = dict(
        instructions=args.instructions, scale=args.scale, progress=progress,
        jobs=args.jobs, store=args.store, engine_mode=args.engine_mode,
        fault_policy=fault_policy, resume=args.resume, cluster=args.cluster,
        peers=args.store_peers,
    )
    if args.command == "fig8":
        matrix = run_matrix(args.benchmarks, widths=tuple(args.widths),
                            **matrix_kwargs)
        print(figure8_text(matrix, args.benchmarks, tuple(args.widths)))
    elif args.command == "fig9":
        matrix = run_matrix(args.benchmarks, widths=(8,), layouts=(True,),
                            **matrix_kwargs)
        print(figure9_text(matrix, args.benchmarks))
    elif args.command == "table1":
        print(table1_text(args.benchmarks, args.instructions, args.scale))
    elif args.command == "table3":
        matrix = run_matrix(args.benchmarks, widths=(8,), **matrix_kwargs)
        print(table3_text(matrix, args.benchmarks))
    elif args.command == "ablations":
        print(ablations.line_width_sweep(
            args.benchmark, instructions=args.instructions,
            scale=args.scale, engine_mode=args.engine_mode))
        print()
        print(ablations.ftq_depth_sweep(
            args.benchmark, instructions=args.instructions,
            scale=args.scale, engine_mode=args.engine_mode))
        print()
        print(ablations.trace_storage_ablation(
            args.benchmark, instructions=args.instructions,
            scale=args.scale, engine_mode=args.engine_mode))
        print()
        print(ablations.cascade_ablation(
            args.benchmark, instructions=args.instructions,
            scale=args.scale, engine_mode=args.engine_mode))
    print(f"(elapsed {time.time() - t0:.0f}s)", file=sys.stderr)
    return 0


def _cache_command(args) -> int:
    """``cache stats|verify|gc|sync`` against the configured store."""
    if not args.store:
        print(f"no store configured: pass --store DIR or set ${STORE_ENV}",
              file=sys.stderr)
        return 2
    store = ArtifactStore(args.store)
    peers = args.store_peers
    if args.action == "sync":
        if not peers:
            print("cache sync needs peers: "
                  "repro-experiments cache sync HOST:PORT[,...]",
                  file=sys.stderr)
            return 2
        from repro.store.remote import sync_with_peers
        rows = sync_with_peers(store, peers, direction=args.direction,
                               out=print)
        errors = sum(row["errors"] for row in rows)
        skipped = sum(1 for row in rows if row["skipped"])
        if skipped == len(rows):
            print("cache sync: every peer skipped", file=sys.stderr)
            return 1
        return 1 if errors else 0
    if args.action == "stats":
        stats = store.stats()
        print(f"store {stats['root']}")
        for kind, row in sorted(stats["kinds"].items()):
            print(f"  {kind:8s} {row['entries']:6d} entries  "
                  f"{row['bytes']:>12,d} bytes")
        if stats.get("journals"):
            complete = stats.get("journals_complete", 0)
            ages = ""
            oldest = stats.get("journal_oldest_seconds")
            newest = stats.get("journal_newest_seconds")
            if oldest is not None and newest is not None:
                ages = (f"  ({complete} complete, ages "
                        f"{_fmt_age(newest)}..{_fmt_age(oldest)})")
            print(f"  journals {stats['journals']:6d} sweeps   "
                  f"{stats['journal_bytes']:>12,d} bytes{ages}")
        if stats["bad_entries"]:
            print(f"  WARNING: {stats['bad_entries']} corrupt or "
                  f"unreadable entries (run verify)")
        if peers:
            _remote_stats(peers)
        return 0
    if args.action == "verify":
        report = store.verify()
        print(f"checked {report['checked']} entries: "
              f"{len(report['corrupt'])} corrupt, "
              f"{len(report['unreadable'])} unreadable")
        for kind, fp in report["corrupt"]:
            print(f"  corrupt entry {kind}/{fp} (run gc to reclaim)")
        for kind, fp in report["unreadable"]:
            print(f"  unreadable entry {kind}/{fp} (possibly transient; "
                  f"gc leaves it alone)")
        ok = not (report["corrupt"] or report["unreadable"])
        if peers:
            ok = _remote_verify(store, peers, args.sample) and ok
        if ok:
            print("store is clean")
        return 0 if ok else 1
    # gc
    journal_max_age = (
        args.journal_days * 86400.0 if args.journal_days is not None
        else None
    )
    report = store.gc(max_bytes=args.max_bytes, dry_run=args.dry_run,
                      journal_max_age=journal_max_age)
    verb = "would delete" if args.dry_run else "deleted"
    print(f"{verb} {report['evicted_entries']} entries "
          f"({report['freed_bytes']:,d} bytes evicted), "
          f"{report['tmp_removed']} temp files and "
          f"{report['journals_removed']} sweep journals; "
          f"{report['live_bytes']:,d} live bytes remain")
    return 0


def _remote_stats(peers) -> None:
    """The ``cache stats`` remote section: one row per peer."""
    from repro.store.remote.sync import SYNC_KINDS

    print("remote peers:")
    for address in parse_peers(peers):
        client = ServeClient.at(address, connect_retries=1)
        try:
            client.hello()
        except StorePeerUnusable as exc:
            print(f"  {address:21s} unusable ({exc})")
            continue
        except ServeError as exc:
            print(f"  {address:21s} unreachable ({exc})")
            continue
        counts = []
        for kind in SYNC_KINDS:
            try:
                counts.append(f"{kind} {len(client.store_has(kind, None))}")
            except ServeError:
                counts.append(f"{kind} ?")
        print(f"  {address:21s} up  ({', '.join(counts)})")
        # A federated daemon's status carries its own STORE_REMOTE_*
        # view (per-peer hits/misses/integrity, replication backlog).
        try:
            remote = client.status().get("store", {}).get("remote")
        except ServeError:
            remote = None
        if remote:
            for row in remote.get("peers", []):
                print(f"    -> {row['peer']:21s} {row['state']:9s} "
                      f"hits {row['hits']}  misses {row['misses']}  "
                      f"integrity {row['integrity']}  "
                      f"errors {row['errors']}  "
                      f"replicated {row['replicated']}")
            rep = remote.get("replication", {})
            print(f"    replication backlog {rep.get('backlog', 0)}, "
                  f"dropped {rep.get('dropped', 0)}")


def _remote_verify(store, peers, sample: int) -> bool:
    """``cache verify --peers``: cross-check shared fingerprint oids.

    Samples up to ``sample`` shared fingerprints of every kind in the
    local index, per peer, and compares oids: an artifact is immutable
    by construction, so one fingerprint must name one object.
    """
    from repro.store.remote.sync import _local_index

    local = _local_index(store)
    ok = True
    for address in parse_peers(peers):
        client = ServeClient.at(address, connect_retries=1)
        try:
            client.hello()
        except ServeError as exc:
            print(f"peer {address}: skipped ({exc})")
            continue
        for kind, ours in sorted(local.items()):
            try:
                theirs = client.store_has(kind, None)
            except ServeError as exc:
                print(f"peer {address}: {kind} listing failed ({exc})")
                continue
            shared = sorted(set(ours) & set(theirs))[:max(0, sample)]
            mismatched = [fp for fp in shared if ours[fp] != theirs[fp]]
            for fp in mismatched:
                ok = False
                print(f"peer {address}: {kind}/{fp} oid mismatch "
                      f"(local {ours[fp][:12]}.. != "
                      f"peer {theirs[fp][:12]}..)")
            print(f"peer {address}: {kind}: {len(shared)} shared "
                  f"fingerprints checked, "
                  f"{len(mismatched)} mismatched")
    return ok


def _fmt_age(seconds: Optional[float]) -> str:
    """A compact human age: ``42s``, ``13m``, ``6h``, ``12d``."""
    if seconds is None:
        return "?"
    seconds = max(0.0, seconds)
    for unit, span in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if seconds >= span:
            return f"{seconds / span:.0f}{unit}"
    return f"{seconds:.0f}s"


def _profile_cell(args) -> int:
    """Run one representative cell under cProfile; print top-20 by
    cumulative time (and persist the pstats with --profile-dir)."""
    from repro.experiments.configs import ARCHITECTURES, build_processor
    from repro.experiments.runner import RunSpec, cell_fingerprints
    from repro.isa.workloads import prepare_program, ref_trace_seed
    from repro.obs.profiling import profile_call

    arch = args.profile
    if arch not in ARCHITECTURES:
        print(f"unknown architecture {arch!r}; choose from "
              f"{', '.join(ARCHITECTURES)}", file=sys.stderr)
        return 2
    benchmark = args.benchmarks[0]
    width = getattr(args, "widths", [8])[0] if hasattr(args, "widths") else 8
    program = prepare_program(benchmark, optimized=True, scale=args.scale)
    processor = build_processor(
        arch, program, width,
        benchmark=benchmark, optimized=True,
        trace_seed=ref_trace_seed(benchmark),
        engine_mode=args.engine_mode,
    )
    # The same fingerprint the store/journal would use for this cell
    # (warmup 0 — the profiling run has none), so before/after pstats
    # files from identical configurations land on identical names.
    spec = RunSpec(arch, benchmark, width, True)
    fingerprint = cell_fingerprints(
        [spec], args.instructions, 0, args.scale
    )[spec]
    print(f"profiling {arch}/{benchmark}/w{width} for "
          f"{args.instructions} instructions", file=sys.stderr)
    profiled = profile_call(
        processor.run, args.instructions,
        fingerprint=fingerprint, out_dir=args.profile_dir,
    )
    profiled.print_stats()
    if profiled.pstats_path is not None:
        print(f"pstats written to {profiled.pstats_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
