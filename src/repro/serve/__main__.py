"""``python -m repro.serve`` — run or selftest the experiment daemon.

Serve mode binds the daemon and prints one ready line
(``repro-serve: listening on HOST:PORT``) so wrappers started with
``--port 0`` can discover the ephemeral port.  SIGTERM and SIGINT both
drain: admission stops, queued cells finish into the store and their
journals, then the process exits 0.

``python -m repro.serve selftest`` boots real daemon subprocesses and
proves the service claims end to end: request coalescing (N concurrent
identical cold requests, one simulation per cell), worker crashes and
hangs degrading per the fault ladder without corrupting responses,
store I/O errors costing only caching, client deadlines yielding
partial results, SIGKILL + restart re-simulating only missing cells,
and drain exiting cleanly — all against injected ``$REPRO_FAULTS``
plans, all checked bit-identical against a local ``run_matrix``.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.exec.faults import FAULTS_ENV, FaultSpec, encode_plan
from repro.exec.policy import FaultPolicy
from repro.serve.client import ServeClient, ServeOverloaded
from repro.serve.protocol import MatrixQuery
from repro.serve.server import ExperimentServer


def serve(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-lived experiment daemon over the artifact store.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 binds an ephemeral port)")
    parser.add_argument("--store", metavar="DIR",
                        default=os.environ.get("REPRO_STORE"),
                        help="artifact store root (default: $REPRO_STORE; "
                             "omit to serve without persistence)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for cold cells")
    parser.add_argument("--queue-limit", type=int, default=256,
                        help="max owned cold cells admitted at once")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-attempt wall-clock deadline (seconds)")
    parser.add_argument("--retries", type=int, default=2,
                        help="per-cell retry budget")
    parser.add_argument("--store-peers", metavar="HOST:PORT[,...]",
                        default=os.environ.get("REPRO_STORE_PEERS"),
                        help="federated store peers to read through to "
                             "and replicate into (default: "
                             "$REPRO_STORE_PEERS; needs --store)")
    args = parser.parse_args(argv)

    policy = FaultPolicy(timeout=args.timeout, retries=args.retries)
    server = ExperimentServer(
        host=args.host, port=args.port,
        store_root=args.store or None, max_workers=args.workers,
        queue_limit=args.queue_limit, policy=policy,
        store_peers=(args.store_peers or None) if args.store else None,
    )
    host, port = server.address
    print(f"repro-serve: listening on {host}:{port}", flush=True)
    if args.store:
        print(f"repro-serve: store at {args.store}", flush=True)
        if args.store_peers:
            print(f"repro-serve: store peers {args.store_peers}",
                  flush=True)
    elif args.store_peers:
        print("repro-serve: ignoring --store-peers (no --store)",
              flush=True)

    def _drain_signal(signum: int, frame: Any) -> None:
        print(f"repro-serve: received signal {signum}, draining",
              flush=True)
        server.drain()

    signal.signal(signal.SIGTERM, _drain_signal)
    signal.signal(signal.SIGINT, _drain_signal)
    server.serve_forever()
    print("repro-serve: drained, exiting", flush=True)
    return 0


# ======================================================================
# selftest
# ======================================================================
#: The selftest matrix: two cells so fault plans can target one of them
#: ("ev8") while the other ("stream") proves unaffected work survives.
MATRIX = dict(
    benchmarks=("gzip",),
    widths=(8,),
    archs=("stream", "ev8"),
    layouts=(True,),
    instructions=3000,
    warmup=1000,
    scale=0.3,
)
N_CELLS = 2


def free_port(host: str = "127.0.0.1") -> int:
    """Reserve an OS-assigned port and release it immediately.

    Fleet helper: a fault plan that partitions *one node* needs to
    name that node's ``host:port`` before its daemon boots, which an
    ephemeral ``--port 0`` cannot provide.  The release-then-rebind
    race is theoretical in the selftest harness (nothing else binds
    localhost ports between the two calls).
    """
    import socket

    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class _Daemon:
    """One daemon subprocess with ready-line port discovery.

    ``port=0`` (the default) binds an ephemeral port, discovered from
    the ready line; a fixed ``port`` (see :func:`free_port`) lets the
    caller know the daemon's address in advance — the cluster
    selftest's per-node fault plans need that.
    """

    def __init__(self, store: Optional[str], *extra: str,
                 faults: Optional[str] = None, port: int = 0) -> None:
        env = dict(os.environ)
        env.pop(FAULTS_ENV, None)
        env.pop("REPRO_STORE", None)  # hermetic: --store or nothing
        env.pop("REPRO_STORE_PEERS", None)  # peers come via extra argv
        if faults is not None:
            env[FAULTS_ENV] = faults
        # The subprocess must import repro however the parent did
        # (examples insert src/ into sys.path, not PYTHONPATH).
        import repro

        src_root = os.path.dirname(
            os.path.abspath(list(repro.__path__)[0]))
        path = env.get("PYTHONPATH", "")
        if src_root not in path.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + path if path else "")
            )
        cmd = [sys.executable, "-m", "repro.serve",
               "--host", "127.0.0.1", "--port", str(port)]
        if store is not None:
            cmd += ["--store", store]
        cmd += list(extra)
        # Own process group: a SIGKILL must take the pool workers down
        # with the daemon, or their inherited connection FDs keep the
        # "dead" node's sockets established.
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        prefix = "repro-serve: listening on "
        if not line.startswith(prefix):
            self.proc.kill()
            raise AssertionError(f"daemon did not come up: {line!r}")
        host, _, port = line[len(prefix):].strip().rpartition(":")
        self.client = ServeClient(host, int(port))
        # Drain the remaining stdout on a reaper thread so a chatty
        # daemon can never block on a full pipe.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    @property
    def address(self) -> str:
        return f"{self.client.host}:{self.client.port}"

    def kill(self) -> None:
        self._kill_group()
        self.proc.wait(timeout=60)

    def drain_and_wait(self, timeout: float = 300.0) -> int:
        self.client.drain()
        return self.proc.wait(timeout=timeout)

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            self.proc.kill()

    def __enter__(self) -> "_Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.proc.poll() is None:
            self._kill_group()
            self.proc.wait(timeout=60)


def _query(**overrides: Any) -> MatrixQuery:
    params = dict(MATRIX)
    params.update(overrides)
    return MatrixQuery(
        benchmarks=params["benchmarks"], widths=params["widths"],
        archs=params["archs"], layouts=params["layouts"],
        instructions=params["instructions"], warmup=params["warmup"],
        scale=params["scale"],
        engine_mode=params.get("engine_mode"),
        deadline=params.get("deadline"),
    )


def _sweep(daemon: _Daemon):
    """The selftest matrix through ``run_matrix(cluster=...)`` on one
    daemon, which must answer every cell itself (no local fallback)."""
    from repro.cluster.pool import ClusterPool
    from repro.experiments.runner import run_matrix

    pool = ClusterPool([daemon.address])
    out = run_matrix(cluster=pool, **MATRIX)
    assert not pool.degraded_local, \
        f"daemon at {daemon.address} never answered; the sweep ran locally"
    return out


def _assert_identical(remote, base) -> None:
    assert remote.results == base.results, \
        "daemon results differ from a local run_matrix"


def _check_coalesce(base) -> None:
    """N concurrent identical cold requests -> one simulation per cell."""
    with tempfile.TemporaryDirectory() as root, _Daemon(root) as daemon:
        n_clients = 4
        barrier = threading.Barrier(n_clients)
        outputs: List[Any] = [None] * n_clients

        def request(i: int) -> None:
            barrier.wait()
            outputs[i] = _sweep(daemon)

        threads = [threading.Thread(target=request, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        for out in outputs:
            assert out is not None, "a concurrent request never finished"
            _assert_identical(out, base)
        status = daemon.client.status()
        cells = status["cells"]
        assert cells["computed"] == N_CELLS, (
            f"expected exactly {N_CELLS} simulations for {n_clients} "
            f"concurrent identical requests, daemon ran "
            f"{cells['computed']}"
        )
        assert cells["coalesced"] >= N_CELLS, \
            f"no coalescing happened: {cells}"
        # Warm re-request: served from the store, nothing recomputed.
        again = _sweep(daemon)
        _assert_identical(again, base)
        status = daemon.client.status()
        assert status["cells"]["computed"] == N_CELLS
        assert daemon.drain_and_wait() == 0


def _check_worker_kill(base) -> None:
    """A SIGKILLed worker costs a retry, never a wrong response."""
    plan = encode_plan(FaultSpec("kill", match="ev8", times=1))
    with tempfile.TemporaryDirectory() as root, \
            _Daemon(root, "--retries", "2", faults=plan) as daemon:
        out = _sweep(daemon)
        _assert_identical(out, base)
        status = daemon.client.status()
        assert status["cells"]["failed"] == 0, status["cells"]
        assert daemon.drain_and_wait() == 0


def _check_hang_deadline(base) -> None:
    """A hung worker is killed at the attempt deadline and retried."""
    plan = encode_plan(FaultSpec("hang", match="ev8", times=1, seconds=120))
    with tempfile.TemporaryDirectory() as root, \
            _Daemon(root, "--timeout", "20", "--retries", "2",
                    faults=plan) as daemon:
        out = _sweep(daemon)
        _assert_identical(out, base)
        assert daemon.drain_and_wait() == 0


def _check_store_errors(base) -> None:
    """Store write errors cost caching, never the response."""
    plan = encode_plan(FaultSpec("store_err", match="result", times=2))
    with tempfile.TemporaryDirectory() as root, \
            _Daemon(root, faults=plan) as daemon:
        out = _sweep(daemon)
        _assert_identical(out, base)
        assert daemon.drain_and_wait() == 0


def _check_deadline_partial(base) -> None:
    """A request deadline yields typed partial results, not a hang."""
    # Every attempt of the ev8 cell hangs and there is no attempt
    # timeout, so only the client's deadline can end the wait.  (The
    # hang outlives the deadline by plenty but not forever, so a worker
    # orphaned by the SIGKILL scenarios exits on its own.)
    plan = encode_plan(FaultSpec("hang", match="ev8", times=10,
                                 seconds=60))
    with tempfile.TemporaryDirectory() as root, \
            _Daemon(root, faults=plan) as daemon:
        response = daemon.client.matrix(_query(deadline=20.0))
        assert not response["complete"]
        by_arch = {cell["arch"]: cell for cell in response["cells"]}
        assert by_arch["stream"]["status"] == "ok", by_arch["stream"]
        assert by_arch["ev8"]["status"] == "deadline", by_arch["ev8"]
        daemon.kill()  # the hung worker never finishes; no clean drain


def _check_restart_resume(base) -> None:
    """SIGKILL mid-sweep + restart re-simulates only missing cells."""
    plan = encode_plan(FaultSpec("hang", match="ev8", times=10,
                                 seconds=60))
    with tempfile.TemporaryDirectory() as root:
        with _Daemon(root, faults=plan) as daemon:
            response = daemon.client.matrix(_query(deadline=20.0))
            by_arch = {cell["arch"]: cell for cell in response["cells"]}
            assert by_arch["stream"]["status"] == "ok"
            assert by_arch["ev8"]["status"] == "deadline"
            daemon.kill()  # mid-sweep: ev8 still hanging

        # Fault-free restart over the same store: the finished cell
        # must come back from disk, only the lost one re-simulates.
        with _Daemon(root) as daemon:
            out = _sweep(daemon)
            _assert_identical(out, base)
            status = daemon.client.status()
            assert status["cells"]["computed"] == 1, (
                f"restart re-simulated {status['cells']['computed']} "
                f"cell(s), expected exactly the 1 lost to SIGKILL"
            )
            assert status["store"]["hits"]["result"] >= 1, status["store"]
            assert daemon.drain_and_wait() == 0


def _check_overloaded(base) -> None:
    """Admission control answers with a typed overloaded error."""
    with tempfile.TemporaryDirectory() as root, \
            _Daemon(root, "--queue-limit", "0") as daemon:
        try:
            daemon.client.matrix(_query())
        except ServeOverloaded:
            pass
        else:
            raise AssertionError(
                "queue_limit=0 daemon admitted a cold request"
            )
        # The daemon is refusing work, not broken: ping still answers
        # and drain still exits cleanly.
        assert daemon.client.ping()["ok"]
        assert daemon.drain_and_wait() == 0


def _check_drain(base) -> None:
    """Bare lifecycle: boot, ping, status, drain, clean exit."""
    with _Daemon(None) as daemon:  # no store: pure in-memory service
        ping = daemon.client.ping()
        assert ping["ok"] and ping["pid"] == daemon.proc.pid
        status = daemon.client.status()
        assert status["queue"]["backlog"] == 0
        assert not status["draining"]
        assert daemon.drain_and_wait() == 0


CHECKS: List[Tuple[str, Callable]] = [
    ("drain", _check_drain),
    ("coalesce", _check_coalesce),
    ("worker-kill", _check_worker_kill),
    ("hang-deadline", _check_hang_deadline),
    ("store-io-error", _check_store_errors),
    ("deadline-partial", _check_deadline_partial),
    ("restart-resume", _check_restart_resume),
    ("overloaded", _check_overloaded),
]


def selftest(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve selftest",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--only", metavar="NAME",
                        help="run a single scenario")
    parser.add_argument("--help-scenarios", action="store_true",
                        help="list the scenarios and exit")
    args = parser.parse_args(argv)
    if args.help_scenarios:
        for name, _ in CHECKS:
            print(name)
        return 0

    checks = CHECKS
    if args.only:
        checks = [(n, fn) for n, fn in CHECKS if n == args.only]
        if not checks:
            print(f"selftest: unknown scenario {args.only!r}",
                  file=sys.stderr)
            return 2

    from repro.experiments.runner import run_matrix

    print(f"selftest: local baseline matrix "
          f"({MATRIX['instructions']} instructions x {N_CELLS} cells)...",
          flush=True)
    base = run_matrix(**MATRIX)

    failed = 0
    for name, check in checks:
        print(f"selftest: {name}...", end=" ", flush=True)
        started = time.monotonic()
        try:
            check(base)
        except Exception as exc:
            failed += 1
            print(f"FAIL ({type(exc).__name__}: {exc})")
        else:
            print(f"ok ({time.monotonic() - started:.1f}s)")
    if failed:
        print(f"selftest: {failed} scenario(s) FAILED", file=sys.stderr)
        return 1
    print(f"selftest: {len(checks)} scenario(s) passed; every daemon "
          f"response bit-identical to a local run_matrix")
    return 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "selftest":
        return selftest(argv[1:])
    return serve(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
