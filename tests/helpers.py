"""Shared helpers importable from any test module."""

from __future__ import annotations

import dataclasses
import socket
import struct
import threading

from repro.cluster.pool import ClusterPool
from repro.common.types import BranchKind
from repro.experiments.runner import run_matrix
from repro.isa.behavior import Bernoulli, LoopTrip
from repro.isa.cfg import ControlFlowGraph, IlpProfile

#: The fault drills' matrix: two cells, so a fault plan can target one
#: of them ("ev8", by job key or wire-frame substring) while the other
#: ("stream") shows that unaffected work survives.
DRILL_MATRIX = dict(
    benchmarks=("gzip",),
    widths=(8,),
    archs=("stream", "ev8"),
    layouts=(True,),
    instructions=3000,
    warmup=1000,
    scale=0.3,
)


def free_port(host: str = "127.0.0.1") -> int:
    """Reserve an OS-assigned port and release it at once.

    Nothing listens there afterwards, so it is a dead address, and a
    daemon booted on it has an address known before it boots (a fault
    plan that partitions one node has to name it).
    """
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def serve_once(payload: bytes, rst: bool = False) -> int:
    """One-shot server: accept, read the request line, answer
    ``payload`` verbatim, close (with an RST instead of a FIN when
    ``rst``).  Returns the port."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]

    def run() -> None:
        conn, _ = server.accept()
        try:
            conn.makefile("rb").readline()
            if payload:
                conn.sendall(payload)
            if rst:
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
        finally:
            conn.close()
            server.close()

    threading.Thread(target=run, daemon=True).start()
    return port


def daemon_sweep(daemon):
    """``DRILL_MATRIX`` through ``run_matrix(cluster=...)`` on one
    daemon, which must answer every cell itself (no local fallback)."""
    pool = ClusterPool([daemon.address])
    out = run_matrix(cluster=pool, **DRILL_MATRIX)
    assert not pool.degraded_local, \
        f"daemon at {daemon.address} never answered; the sweep ran locally"
    return out


def result_digest(result) -> dict:
    """``asdict`` of a SimulationResult minus its ``extras``.

    ``extras`` carries run diagnostics (scheduler segment counts) that
    describe how a run executed rather than what it measured — it is
    ``compare=False`` on the dataclass for the same reason — so
    bit-identity assertions compare everything except it.
    """
    d = dataclasses.asdict(result)
    d.pop("extras", None)
    return d


class ExplicitCodes:
    """A back end's data stream with given codes: ``-1`` is an L1D hit,
    ``(addr << 1) | evicted`` an L1D miss at ``addr``."""

    def __init__(self, codes=()):
        self.codes = list(codes)

    def extend(self):
        raise AssertionError("dispatched past the explicit codes")


def build_tiny_cfg() -> ControlFlowGraph:
    """A hand-built CFG mirroring Figure 1 of the paper.

    A loop whose body is an if-then-else (hammock): blocks A (cond),
    B (hot side), C (cold side), D (loop tail, back edge to A), plus a
    jump block that restarts the loop forever on exit.
    """
    cfg = ControlFlowGraph(ilp=IlpProfile())
    main = cfg.new_function("main")
    a = cfg.new_block(main, 4, BranchKind.COND, behavior=Bernoulli(0.10))
    b = cfg.new_block(main, 6, BranchKind.NONE)
    c = cfg.new_block(main, 5, BranchKind.NONE)
    d = cfg.new_block(main, 3, BranchKind.COND,
                      behavior=LoopTrip(10.0, jitter=0.0))
    # A: cond True -> C (cold 10%), False -> B (hot 90%)
    a.succ_true = c.bid
    a.succ_false = b.bid
    b.succ_false = d.bid
    c.succ_false = d.bid
    d.succ_true = a.bid   # back edge
    exit_block = cfg.new_block(main, 2, BranchKind.JUMP)
    exit_block.succ_true = a.bid
    d.succ_false = exit_block.bid
    cfg.entry_bid = a.bid
    cfg.validate()
    return cfg
