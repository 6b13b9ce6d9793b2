"""``python -m repro.serve`` — run the experiment daemon.

It binds the daemon and prints one ready line
(``repro-serve: listening on HOST:PORT``) so wrappers started with
``--port 0`` can discover the ephemeral port.  SIGTERM and SIGINT both
drain: admission stops, queued cells finish into the store and their
journals, then the process exits 0.

:class:`_Daemon` boots this entry point as a subprocess; the fault
drills (``pytest -m faults``) and the fleet examples use it.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
from typing import Any, List, Optional

from repro.exec.faults import FAULTS_ENV
from repro.exec.policy import FaultPolicy
from repro.serve.client import ServeClient, address_list
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
                        type=address_list,
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


class _Daemon:
    """One daemon subprocess with ready-line port discovery.

    ``port=0`` (the default) binds an ephemeral port, discovered from
    the ready line; a fixed ``port`` lets the caller know the daemon's
    address before it boots, which a fault plan aimed at one node of a
    fleet needs.  Once the daemon is gone (:meth:`kill`,
    :meth:`drain_and_wait`, or leaving the ``with`` block), its stdout
    pipe is read to the end and closed.
    """

    #: Seconds to wait for the pipe's end once the daemon has exited.
    REAP_TIMEOUT = 10.0

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
            self._kill_group()
            self.proc.wait(timeout=60)
            self.proc.stdout.close()
            raise AssertionError(f"daemon did not come up: {line!r}")
        host, _, port = line[len(prefix):].strip().rpartition(":")
        self.client = ServeClient(host, int(port))
        # Drain the remaining stdout on a reaper thread so a chatty
        # daemon can never block on a full pipe.
        self.reaper = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self.reaper.start()

    @property
    def address(self) -> str:
        return f"{self.client.host}:{self.client.port}"

    def kill(self) -> None:
        self._kill_group()
        self.proc.wait(timeout=60)
        self._reap()

    def drain_and_wait(self, timeout: float = 300.0) -> int:
        self.client.drain()
        code = self.proc.wait(timeout=timeout)
        self._reap()
        return code

    def _reap(self) -> None:
        """Join the reaper, then close the pipe it read to the end.

        A reaper still reading after ``REAP_TIMEOUT`` (some survivor
        holds the pipe open) keeps the pipe: closing a file another
        thread is reading blocks until that read returns.
        """
        self.reaper.join(self.REAP_TIMEOUT)
        if not self.reaper.is_alive():
            self.proc.stdout.close()

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
        self._reap()


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1:]))
