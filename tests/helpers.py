"""Shared helpers importable from any test module."""

from __future__ import annotations

import dataclasses

from repro.common.types import BranchKind
from repro.isa.behavior import Bernoulli, LoopTrip
from repro.isa.cfg import ControlFlowGraph, IlpProfile


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
