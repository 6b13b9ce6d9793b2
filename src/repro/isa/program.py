"""Linked program images: the static "basic block dictionary".

:func:`link` turns a CFG plus a block ordering into a :class:`Program`:
every block gets an address, conditional branch senses are chosen so the
fall-through successor is the adjacent block, and trampoline stubs
(1-instruction unconditional jumps) are inserted where the layout breaks
an adjacency the CFG requires.  The resulting image is what the paper
calls the *static basic block dictionary*: fetch engines use it to walk
any path — including wrong speculative paths — through the code.

Instruction-level metadata for the back-end model (latencies, dependence
distances, memory behaviour) is synthesized deterministically per static
instruction slot from the program seed, so two runs of the same program
see identical instructions.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.types import INSTRUCTION_BYTES, BranchKind, InstrClass
from repro.isa.cfg import ControlFlowGraph, IlpProfile

#: Per-instruction metadata tuple:
#: (instr_class, base_latency, dep1_distance, dep2_distance, mem_base,
#:  mem_stride, mem_span)
#: dep distances are 0 when absent; mem_* are 0 for non-memory ops.
InstrMeta = Tuple[int, int, int, int, int, int, int]


class LinearBlock:
    """A laid-out block: address-level view of one basic block or stub."""

    __slots__ = (
        "index",
        "addr",
        "size",
        "kind",
        "target_addr",
        "origin",
        "taken_means_true",
        "ind_target_addrs",
        "_meta",
        "_slot_keys",
    )

    def __init__(
        self,
        index: int,
        addr: int,
        size: int,
        kind: BranchKind,
        target_addr: Optional[int],
        origin: Optional[int],
        taken_means_true: bool,
    ) -> None:
        self.index = index
        self.addr = addr
        self.size = size
        self.kind = kind
        self.target_addr = target_addr
        self.origin = origin  # CFG bid, or None for a layout stub
        self.taken_means_true = taken_means_true
        self.ind_target_addrs: Optional[List[int]] = None
        self._meta: Optional[Tuple[InstrMeta, ...]] = None
        self._slot_keys: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def fallthrough_addr(self) -> int:
        return self.addr + self.size * INSTRUCTION_BYTES

    @property
    def end_addr(self) -> int:
        return self.fallthrough_addr

    @property
    def branch_addr(self) -> Optional[int]:
        """Address of the terminal control instruction, if any."""
        if self.kind is BranchKind.NONE:
            return None
        return self.addr + (self.size - 1) * INSTRUCTION_BYTES

    @property
    def is_stub(self) -> bool:
        return self.origin is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LinearBlock(#{self.index} @{self.addr:#x} size={self.size} "
            f"{self.kind.name} origin={self.origin})"
        )


class Program:
    """An executable image: ordered linear blocks plus lookup structures."""

    def __init__(
        self,
        cfg: ControlFlowGraph,
        linear_blocks: List[LinearBlock],
        addr_of_bid: Dict[int, int],
        base_address: int,
        seed: int,
    ) -> None:
        self.cfg = cfg
        self.linear_blocks = linear_blocks
        self.addr_of_bid = addr_of_bid
        self.base_address = base_address
        self.seed = seed
        self._starts = [lb.addr for lb in linear_blocks]
        self._by_start = {lb.addr: lb for lb in linear_blocks}
        self._end_address = linear_blocks[-1].end_addr if linear_blocks else base_address
        #: Memoized pre-decode scans, filled by repro.fetch.base.scan_run.
        self._scan_cache: Dict[Tuple[int, int], tuple] = {}
        #: Memoized dynamic traces, one per walk seed — see
        #: :class:`repro.isa.trace.TraceRecord`.
        self._trace_records: Dict[int, object] = {}
        #: Addresses of all conditional branch instructions — an O(1)
        #: pre-decode surface for fetch engines that need to know "is
        #: there a conditional here?" on their per-instruction path.
        self.cond_branch_addrs = frozenset(
            lb.addr + (lb.size - 1) * INSTRUCTION_BYTES
            for lb in linear_blocks
            if lb.kind is BranchKind.COND
        )

    # ------------------------------------------------------------------
    # address queries
    # ------------------------------------------------------------------
    @property
    def entry_address(self) -> int:
        assert self.cfg.entry_bid is not None
        return self.addr_of_bid[self.cfg.entry_bid]

    @property
    def end_address(self) -> int:
        return self._end_address

    @property
    def code_bytes(self) -> int:
        return self.end_address - self.base_address

    def block_starting_at(self, addr: int) -> Optional[LinearBlock]:
        return self._by_start.get(addr)

    def block_containing(self, addr: int) -> Tuple[LinearBlock, int]:
        """Return (block, instruction offset) for any code address.

        Raises ``ValueError`` for addresses outside the image — fetch
        engines must never wander off the program, so this is loud.
        """
        if not self.base_address <= addr < self._end_address:
            raise ValueError(f"address {addr:#x} outside program image")
        pos = bisect.bisect_right(self._starts, addr) - 1
        lb = self.linear_blocks[pos]
        offset = (addr - lb.addr) // INSTRUCTION_BYTES
        if offset >= lb.size:
            raise ValueError(f"address {addr:#x} in inter-block gap")
        return lb, offset

    def next_block(self, lb: LinearBlock) -> Optional[LinearBlock]:
        nxt = lb.index + 1
        if nxt >= len(self.linear_blocks):
            return None
        return self.linear_blocks[nxt]

    # ------------------------------------------------------------------
    # instruction metadata (back-end model)
    # ------------------------------------------------------------------
    def instr_meta(self, lb: LinearBlock) -> Tuple[InstrMeta, ...]:
        """Deterministic per-slot metadata for a linear block (cached)."""
        if lb._meta is None:
            lb._meta = tuple(_synthesize_meta(lb, self.cfg.ilp, self.seed))
        return lb._meta

    def block_meta(
        self, lb: LinearBlock
    ) -> Tuple[Tuple[InstrMeta, ...], Tuple[Tuple[int, int], ...]]:
        """All per-block decode artifacts the hot dispatch loop needs.

        Returns ``(instr_meta, slot_keys)``, both computed at most once
        per block and interned on it: the processor's run loop consumes
        one element of each per instruction, so building them per
        instruction (as a naive loop would) dominates the profile.
        """
        meta = lb._meta
        if meta is None:
            meta = lb._meta = tuple(_synthesize_meta(lb, self.cfg.ilp, self.seed))
        keys = lb._slot_keys
        if keys is None:
            addr = lb.addr
            keys = lb._slot_keys = tuple((addr, i) for i in range(lb.size))
        return meta, keys

    # ------------------------------------------------------------------
    # serialization (perfbench's program codec only; the store holds
    # results alone)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle state, for :func:`repro.store.serialize.dump_program`.

        The scan cache and the memoized trace records are dropped: scans
        rebuild on demand, and trace records have their own codec (they
        would otherwise drag walk-context RNG state into the image
        object).  The deterministic per-block decode artifacts
        (``_meta`` / ``_slot_keys`` / segment plans) live on the blocks
        and ride along, so a loaded image is warm.
        """
        state = self.__dict__.copy()
        state["_scan_cache"] = {}
        state["_trace_records"] = {}
        return state

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def describe(self) -> str:
        stubs = sum(1 for lb in self.linear_blocks if lb.is_stub)
        return (
            f"Program: {len(self.linear_blocks)} blocks ({stubs} stubs), "
            f"{self.code_bytes // 1024} KiB of code at "
            f"{self.base_address:#x}"
        )


def link(
    cfg: ControlFlowGraph,
    order: Sequence[int],
    base_address: int = 0x10000,
    seed: int = 0,
) -> Program:
    """Lay out ``cfg`` following ``order`` and produce a :class:`Program`.

    ``order`` must be a permutation of all block ids.  Branch senses are
    flipped where that makes the hot CFG edge the fall-through, and stub
    jumps are inserted when neither conditional successor (or a required
    return point) can be adjacent.
    """
    if sorted(order) != list(range(cfg.num_blocks)):
        raise ValueError("order must be a permutation of all block ids")
    cfg.validate()

    # Pass 1: decide, for each placed block, its branch sense and whether
    # a stub must follow it. The decision depends only on the ordering.
    placements: List[Tuple[Optional[int], bool, Optional[int]]] = []
    # Each entry: (bid or None-for-stub, taken_means_true, stub_target_bid)
    for pos, bid in enumerate(order):
        block = cfg.block(bid)
        following = order[pos + 1] if pos + 1 < len(order) else None
        taken_means_true = True
        stub_target: Optional[int] = None

        if block.kind is BranchKind.NONE:
            if block.succ_false != following:
                stub_target = block.succ_false
        elif block.kind is BranchKind.COND:
            if block.succ_false == following:
                taken_means_true = True
            elif block.succ_true == following:
                taken_means_true = False  # flip: branch targets succ_false
            else:
                taken_means_true = True
                stub_target = block.succ_false
        elif block.kind is BranchKind.CALL:
            if block.succ_false != following:
                stub_target = block.succ_false
        # JUMP / RET / IND need no fall-through.

        placements.append((bid, taken_means_true, None))
        if stub_target is not None:
            placements.append((None, True, stub_target))

    # Pass 2: assign addresses.
    linear_blocks: List[LinearBlock] = []
    addr_of_bid: Dict[int, int] = {}
    addr = base_address
    stub_targets: List[Optional[int]] = []
    for index, (bid, taken_means_true, stub_target) in enumerate(placements):
        if bid is not None:
            block = cfg.block(bid)
            lb = LinearBlock(
                index=index,
                addr=addr,
                size=block.size,
                kind=block.kind,
                target_addr=None,
                origin=bid,
                taken_means_true=taken_means_true,
            )
            addr_of_bid[bid] = addr
            stub_targets.append(None)
        else:
            lb = LinearBlock(
                index=index,
                addr=addr,
                size=1,
                kind=BranchKind.JUMP,
                target_addr=None,
                origin=None,
                taken_means_true=True,
            )
            stub_targets.append(stub_target)
        linear_blocks.append(lb)
        addr += lb.size * INSTRUCTION_BYTES

    # Pass 3: resolve static targets now that all addresses are known.
    for lb, stub_target in zip(linear_blocks, stub_targets):
        if lb.is_stub:
            assert stub_target is not None
            lb.target_addr = addr_of_bid[stub_target]
            continue
        block = cfg.block(lb.origin)
        if block.kind is BranchKind.COND:
            target_bid = block.succ_true if lb.taken_means_true else block.succ_false
            lb.target_addr = addr_of_bid[target_bid]
        elif block.kind in (BranchKind.JUMP, BranchKind.CALL):
            lb.target_addr = addr_of_bid[block.succ_true]
        elif block.kind is BranchKind.IND:
            lb.ind_target_addrs = [addr_of_bid[t] for t in block.ind_targets]

    return Program(cfg, linear_blocks, addr_of_bid, base_address, seed)


# ----------------------------------------------------------------------
# instruction metadata synthesis
# ----------------------------------------------------------------------

def _synthesize_meta(
    lb: LinearBlock, ilp: IlpProfile, program_seed: int
) -> List[InstrMeta]:
    """Generate the per-slot metadata for one linear block.

    Seeded by (program seed, block address) so it is stable across runs
    and across layouts of the *stub* blocks; origin blocks are seeded by
    their CFG bid so the *same* block carries the same instruction mix
    under both layouts (layout must not change the back-end workload).
    """
    key = lb.origin if lb.origin is not None else -(lb.index + 1)
    rng = random.Random((program_seed << 20) ^ (key * 2654435761 & 0xFFFFF))
    meta: List[InstrMeta] = []
    n_regular = lb.size - (1 if lb.kind.is_control else 0)
    for slot in range(n_regular):
        meta.append(_regular_instr(rng, ilp, slot))
    if lb.kind.is_control:
        dep = _dep_distance(rng, ilp)
        meta.append((int(InstrClass.BRANCH), 1, dep, 0, 0, 0, 0))
    return meta


def _regular_instr(rng: random.Random, ilp: IlpProfile, slot: int) -> InstrMeta:
    x = rng.random()
    if x < ilp.load_fraction:
        cls = InstrClass.LOAD
    elif x < ilp.load_fraction + ilp.store_fraction:
        cls = InstrClass.STORE
    elif x < ilp.load_fraction + ilp.store_fraction + ilp.mul_fraction:
        cls = InstrClass.MUL
    else:
        cls = InstrClass.ALU

    d1 = _dep_distance(rng, ilp) if rng.random() < ilp.dep_rate else 0
    d2 = _dep_distance(rng, ilp) if rng.random() < ilp.second_source_rate else 0

    mem_base = mem_stride = mem_span = 0
    if cls in (InstrClass.LOAD, InstrClass.STORE):
        x = rng.random()
        if x < 0.25:
            # Stack/temporary accesses: a tiny, always-resident region.
            mem_base = rng.randrange(0, 1 << 7) << 6
            mem_stride = rng.choice((0, 4, 8))
            mem_span = 1 << 9
        elif x < 0.25 + ilp.load_streaming_fraction:
            # Streaming access: small stride over a shared modest buffer.
            mem_base = (1 << 16) + (rng.randrange(0, 1 << 8) << 6)
            mem_stride = rng.choice((4, 8, 8, 16, 64))
            mem_span = 1 << rng.randint(11, 14)
        else:
            # Scattered access (pointer chasing) over the heap footprint;
            # the span is what decides whether it lives in L2 or memory.
            mem_base = (1 << 24) + (rng.randrange(0, 1 << 10) << 8)
            mem_stride = rng.randrange(64, 8192) | 1
            mem_span = ilp.load_random_footprint
    return (int(cls), cls.base_latency, d1, d2, mem_base, mem_stride, mem_span)


def _dep_distance(rng: random.Random, ilp: IlpProfile) -> int:
    """Geometric dependence distance with mean ``mean_dep_distance``."""
    p = 1.0 / ilp.mean_dep_distance
    distance = 1
    while rng.random() > p and distance < 64:
        distance += 1
    return distance
