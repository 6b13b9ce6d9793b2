"""Control-flow graphs for synthetic workloads.

A :class:`ControlFlowGraph` is a set of functions, each a list of basic
blocks.  Blocks are connected at the *CFG level* (``succ_true`` /
``succ_false`` are block ids); the code layout pass later decides which
successor becomes the ISA fall-through and which is reached through a
taken branch.  This separation is the heart of the base-vs-optimized
comparison in the paper: the same CFG, walked with the same behaviours,
produces very different taken-branch statistics under different layouts.

Successor conventions by :class:`~repro.common.types.BranchKind`:

========  =======================  ==============================
kind      ``succ_true``            ``succ_false``
========  =======================  ==============================
NONE      unused                   fall-through successor
COND      successor when the       successor when the behaviour
          behaviour samples True   samples False
JUMP      jump target              unused
CALL      callee entry block       return-point block (the block
                                   control reaches after the call)
RET       unused (dynamic)         unused
IND       unused (see              unused
          ``ind_targets``)
========  =======================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.types import BranchKind
from repro.isa.behavior import BranchBehavior, IndirectChooser


@dataclass
class IlpProfile:
    """Back-end-visible character of a workload's instructions.

    These parameters drive the deterministic synthesis of per-instruction
    metadata (latency, dependence distances, memory behaviour) used by
    the dataflow back-end model.
    """

    #: Mean dependence distance, in dynamic instructions (geometric).
    mean_dep_distance: float = 4.0
    #: Probability that an instruction depends on a recent producer at
    #: all (immediates and long-lived registers contribute no edge).
    dep_rate: float = 0.6
    #: Probability that an instruction has a second source dependence.
    second_source_rate: float = 0.25
    load_fraction: float = 0.22
    store_fraction: float = 0.10
    mul_fraction: float = 0.04
    #: Fraction of loads that stream with a small stride (high locality).
    load_streaming_fraction: float = 0.55
    #: Data footprint of non-streaming loads, in bytes.
    load_random_footprint: int = 1 << 19

    def __post_init__(self) -> None:
        if self.mean_dep_distance < 1.0:
            raise ValueError("mean_dep_distance must be >= 1")
        fractions = self.load_fraction + self.store_fraction + self.mul_fraction
        if fractions >= 1.0:
            raise ValueError("instruction class fractions must sum below 1")


@dataclass
class BasicBlock:
    """One static basic block (CFG level, address-free)."""

    bid: int
    size: int  # instructions, including the terminal control instruction
    kind: BranchKind = BranchKind.NONE
    succ_true: Optional[int] = None
    succ_false: Optional[int] = None
    behavior: Optional[BranchBehavior] = None
    ind_targets: Optional[List[int]] = None
    ind_chooser: Optional[IndirectChooser] = None
    func_id: int = -1

    def successors(self) -> List[int]:
        """All static successors (bid list); empty for returns."""
        if self.kind is BranchKind.IND:
            return list(self.ind_targets or [])
        out = []
        if self.kind in (BranchKind.COND, BranchKind.JUMP, BranchKind.CALL):
            if self.succ_true is not None:
                out.append(self.succ_true)
        if self.kind in (BranchKind.NONE, BranchKind.COND, BranchKind.CALL):
            if self.succ_false is not None:
                out.append(self.succ_false)
        return out


@dataclass
class Function:
    """A named group of blocks with a single entry."""

    fid: int
    name: str
    entry: int
    bids: List[int] = field(default_factory=list)


class ControlFlowGraph:
    """A whole-program CFG plus its instruction-level character."""

    def __init__(self, ilp: Optional[IlpProfile] = None) -> None:
        self.blocks: List[BasicBlock] = []
        self.functions: List[Function] = []
        self.entry_bid: Optional[int] = None
        self.ilp = ilp or IlpProfile()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_function(self, name: str) -> Function:
        func = Function(fid=len(self.functions), name=name, entry=-1)
        self.functions.append(func)
        return func

    def new_block(
        self,
        func: Function,
        size: int,
        kind: BranchKind = BranchKind.NONE,
        **kwargs,
    ) -> BasicBlock:
        if size < 1:
            raise ValueError("block size must be >= 1")
        block = BasicBlock(
            bid=len(self.blocks), size=size, kind=kind, func_id=func.fid, **kwargs
        )
        self.blocks.append(block)
        func.bids.append(block.bid)
        if func.entry < 0:
            func.entry = block.bid
        return block

    def block(self, bid: int) -> BasicBlock:
        return self.blocks[bid]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_instructions(self) -> int:
        return sum(b.size for b in self.blocks)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on problems.

        Run by workload builders after construction and by tests; the
        link step assumes these invariants hold.
        """
        if self.entry_bid is None:
            raise ValueError("CFG has no entry block")
        nblocks = len(self.blocks)

        def _check_bid(bid: Optional[int], what: str, owner: int) -> None:
            if bid is None or not 0 <= bid < nblocks:
                raise ValueError(f"block {owner}: invalid {what} ({bid})")

        for block in self.blocks:
            kind = block.kind
            if kind is BranchKind.NONE:
                _check_bid(block.succ_false, "fall-through successor", block.bid)
            elif kind is BranchKind.COND:
                _check_bid(block.succ_true, "true successor", block.bid)
                _check_bid(block.succ_false, "false successor", block.bid)
                if block.behavior is None:
                    raise ValueError(f"block {block.bid}: COND without behavior")
            elif kind is BranchKind.JUMP:
                _check_bid(block.succ_true, "jump target", block.bid)
            elif kind is BranchKind.CALL:
                _check_bid(block.succ_true, "callee entry", block.bid)
                _check_bid(block.succ_false, "return point", block.bid)
                callee = self.blocks[block.succ_true]
                entry = self.functions[callee.func_id].entry
                if callee.bid != entry:
                    raise ValueError(
                        f"block {block.bid}: call target {callee.bid} is not "
                        f"a function entry"
                    )
            elif kind is BranchKind.RET:
                pass
            elif kind is BranchKind.IND:
                if not block.ind_targets:
                    raise ValueError(f"block {block.bid}: IND without targets")
                for t in block.ind_targets:
                    _check_bid(t, "indirect target", block.bid)
                if block.ind_chooser is None:
                    raise ValueError(f"block {block.bid}: IND without chooser")
                if len(block.ind_chooser.weights) != len(block.ind_targets):
                    raise ValueError(
                        f"block {block.bid}: chooser arity mismatch"
                    )
            if block.func_id < 0 or block.func_id >= len(self.functions):
                raise ValueError(f"block {block.bid}: bad func_id")

        for func in self.functions:
            if not func.bids:
                raise ValueError(f"function {func.name} is empty")
            if func.entry != func.bids[0]:
                raise ValueError(
                    f"function {func.name}: entry must be its first block"
                )

    def static_branch_census(self) -> Dict[str, int]:
        """Counts of block kinds — used by workload calibration tests."""
        census: Dict[str, int] = {}
        for block in self.blocks:
            census[block.kind.name] = census.get(block.kind.name, 0) + 1
        return census
