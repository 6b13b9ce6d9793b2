"""Dynamic execution: CFG-level profiling and ISA-level trace walking.

Two walkers share the behaviour machinery:

* :func:`profile_edges` walks the CFG at block granularity (no layout
  needed) to collect the edge profile used by the optimized layout — the
  paper's ``train`` input.
* :class:`TraceWalker` walks a linked :class:`~repro.isa.program.Program`
  and yields :class:`DynBlock` records — the paper's ``ref`` input trace
  that drives the simulator.

Behaviours decide between *CFG successors*, so a given seed produces the
same CFG-level path under any layout; only the ISA-level taken/not-taken
view differs.  This mirrors how relinking a binary does not change its
program semantics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.params import CacheParams
from repro.common.types import BranchKind
from repro.isa.behavior import WalkContext
from repro.isa.cfg import ControlFlowGraph
from repro.isa.program import LinearBlock, Program


class DynBlock:
    """One dynamic basic-block execution in the trace.

    Immutable once constructed.  ``addr``/``size``/``kind`` are copied
    out of the linear block at construction: the simulator reads them
    once or more per instruction, so they are plain slot attributes
    rather than properties.  Because instances are immutable, walkers
    intern and re-emit one object per distinct (block, taken, next)
    triple instead of allocating a fresh record per dynamic block.
    """

    __slots__ = ("lb", "taken", "next_addr", "addr", "size", "kind",
                 "meta", "sched")

    def __init__(self, lb: LinearBlock, taken: bool, next_addr: int) -> None:
        self.lb = lb
        self.taken = taken
        self.next_addr = next_addr
        self.addr = lb.addr
        self.size = lb.size
        self.kind = lb.kind
        # Denormalized decode artifacts (filled by the interning walker;
        # None on a block whose metadata was never built): the processor
        # reads ``sched`` once per dispatched segment, the data stream
        # reads ``meta`` once per block of the trace.
        self.meta = lb._meta
        self.sched = lb._sched

    @property
    def target_addr(self) -> int:
        """Where control went when ``taken`` (== ``next_addr`` then)."""
        return self.next_addr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        arrow = "T" if self.taken else "N"
        return f"DynBlock(@{self.addr:#x}+{self.size} {self.kind.name} {arrow})"


def profile_edges(
    cfg: ControlFlowGraph, seed: int, n_blocks: int
) -> Dict[Tuple[int, int], int]:
    """Walk ``n_blocks`` dynamic blocks; count (src, dst) edge traversals."""
    cfg.validate()
    ctx = WalkContext(seed)
    stack: List[int] = []
    edges: Dict[Tuple[int, int], int] = defaultdict(int)
    current = cfg.entry_bid
    assert current is not None

    for _ in range(n_blocks):
        block = cfg.block(current)
        ctx.record_block(current)
        kind = block.kind
        if kind is BranchKind.NONE:
            nxt = block.succ_false
        elif kind is BranchKind.COND:
            cond = block.behavior.sample(ctx, block.bid)
            ctx.record_outcome(cond)
            nxt = block.succ_true if cond else block.succ_false
        elif kind is BranchKind.JUMP:
            nxt = block.succ_true
        elif kind is BranchKind.CALL:
            stack.append(block.succ_false)
            nxt = block.succ_true
        elif kind is BranchKind.RET:
            nxt = stack.pop() if stack else cfg.entry_bid
        else:  # IND
            slot = block.ind_chooser.choose(ctx, block.bid)
            nxt = block.ind_targets[slot]
        edges[(current, nxt)] += 1
        current = nxt
    return dict(edges)


class TraceRecord:
    """The memoized dynamic execution of one (program, seed) pair.

    The trace a :class:`TraceWalker` yields is a pure function of the
    linked program and the walk seed — and ``run_matrix`` simulates the
    same (benchmark, layout) image under every (width, architecture)
    cell.  The record walks the behaviours once, appending the interned
    :class:`DynBlock` stream to a shared list; every walker over the
    same (program, seed) replays that list, paying a list index per
    block instead of a behaviour sample.  Records are cached on the
    :class:`~repro.isa.program.Program` (see :class:`TraceWalker`).

    In this model only correct-path instructions reach the L1D, and
    nothing but loads and stores does, so every cell of one image sends
    its L1D the same access sequence and sees the same hits and misses.
    :meth:`data_stream` computes that outcome once per L1D
    configuration and caches it here, as the record itself is cached on
    the program.
    """

    #: How many blocks one extension step appends.
    CHUNK = 4096

    def __init__(self, program: Program, seed: int) -> None:
        self.program = program
        self.seed = seed
        self.ctx = WalkContext(seed)
        self.stack: List[int] = []
        self._current: Optional[LinearBlock] = program.block_starting_at(
            program.entry_address
        )
        if self._current is None:
            raise ValueError("program entry address does not start a block")
        #: The materialized trace so far (append-only).
        self.blocks: List[DynBlock] = []
        # Interned DynBlocks: traces revisit the same (block, taken,
        # next) triples millions of times, and DynBlock is immutable, so
        # one record per distinct triple serves every occurrence without
        # a per-block allocation.
        self._interned: Dict[Tuple[int, bool, int], DynBlock] = {}
        self._block_at = program.block_starting_at
        #: L1D configuration -> :class:`repro.core.backend.DataStream`.
        self._data_streams: Dict[CacheParams, object] = {}

    def extend(self) -> None:
        """Materialize the next :data:`CHUNK` blocks of the trace."""
        append = self.blocks.append
        block_at = self._block_at
        step = self._step
        lb = self._current
        for _ in range(self.CHUNK):
            if lb is None:  # pragma: no cover - walks are infinite
                break
            record = step(lb)
            lb = block_at(record.next_addr)
            if lb is None:
                raise RuntimeError(
                    f"control transfer to non-block address "
                    f"{record.next_addr:#x}"
                )
            append(record)
        self._current = lb

    def data_stream(self, dl1: CacheParams):
        """The :class:`repro.core.backend.DataStream` of this trace for
        an L1D of configuration ``dl1``, built on first use."""
        stream = self._data_streams.get(dl1)
        if stream is None:
            # Imported here: the back end imports the ISA, not the
            # other way round.
            from repro.core.backend import DataStream

            stream = self._data_streams[dl1] = DataStream(self, dl1)
        return stream

    # ------------------------------------------------------------------
    # serialization (perfbench's trace codec only; the store holds
    # results alone)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Program-independent replay state, for
        :func:`repro.store.serialize.dump_trace`.

        Captures the materialized step stream as (addr, taken, next)
        triples plus the complete walk state — RNG, outcome register,
        path register, per-branch private state, call stack, resume
        address — so a loaded record replays bit-identically *and*
        extends bit-identically past its saved end.
        """
        ctx = self.ctx
        return {
            "seed": self.seed,
            "steps": [(d.addr, d.taken, d.next_addr) for d in self.blocks],
            "rng": ctx.rng.getstate(),
            "global_history": ctx.global_history,
            "path_history": list(ctx.path_history),
            "branch_states": {k: dict(v) for k, v in ctx._states.items()},
            "stack": list(self.stack),
            "current_addr": None if self._current is None
            else self._current.addr,
        }

    @classmethod
    def from_state(
        cls, program: Program, seed: int, state: dict
    ) -> "TraceRecord":
        """Rebind exported state to a (freshly linked or loaded) program,
        for :func:`repro.store.serialize.load_trace`.

        Replays the step stream through the interning emitter, so the
        rebuilt record is indistinguishable from one that walked the
        behaviours itself.  Raises on any inconsistency (wrong seed, a
        step addressing no block); ``load_trace`` reports that as an
        ``ArtifactDecodeError``.
        """
        if state.get("seed") != seed:
            raise ValueError(
                f"trace state for seed {state.get('seed')!r}, wanted {seed}"
            )
        record = cls(program, seed)
        ctx = record.ctx
        ctx.rng.setstate(state["rng"])
        ctx.global_history = state["global_history"]
        ctx.path_history.extend(state["path_history"])
        ctx._states = {key: dict(val)
                       for key, val in state["branch_states"].items()}
        record.stack = list(state["stack"])
        block_at = program.block_starting_at
        emit = record._emit
        append = record.blocks.append
        for addr, taken, next_addr in state["steps"]:
            lb = block_at(addr)
            if lb is None:
                raise ValueError(f"trace step at non-block address {addr:#x}")
            append(emit(lb, taken, next_addr))
        current_addr = state["current_addr"]
        record._current = (
            None if current_addr is None else block_at(current_addr)
        )
        if current_addr is not None and record._current is None:
            raise ValueError(
                f"trace resumes at non-block address {current_addr:#x}"
            )
        return record

    def _emit(self, lb: LinearBlock, taken: bool, next_addr: int) -> DynBlock:
        key = (lb.addr, taken, next_addr)
        dyn = self._interned.get(key)
        if dyn is None:
            # Materialize the block's decode artifacts once, before the
            # record is interned: the processor and the back-end's
            # segment dispatch read them straight off the DynBlock.
            self.program.block_meta(lb)
            dyn = self._interned[key] = DynBlock(lb, taken, next_addr)
        return dyn

    def _step(self, lb: LinearBlock) -> DynBlock:
        program = self.program
        ctx = self.ctx
        kind = lb.kind
        if lb.origin is not None:
            ctx.record_block(lb.origin)

        if kind is BranchKind.NONE:
            return self._emit(lb, False, lb.fallthrough_addr)
        if kind is BranchKind.JUMP:
            return self._emit(lb, True, lb.target_addr)
        if kind is BranchKind.CALL:
            self.stack.append(lb.fallthrough_addr)
            return self._emit(lb, True, lb.target_addr)
        if kind is BranchKind.RET:
            if self.stack:
                target = self.stack.pop()
            else:
                target = program.entry_address
            return self._emit(lb, True, target)
        if kind is BranchKind.IND:
            block = program.cfg.block(lb.origin)
            slot = block.ind_chooser.choose(ctx, block.bid)
            return self._emit(lb, True, lb.ind_target_addrs[slot])

        # Conditional: behaviour decides the CFG successor; the layout
        # decides whether reaching it is an ISA taken or a fall-through.
        block = program.cfg.block(lb.origin)
        cond = block.behavior.sample(ctx, block.bid)
        ctx.record_outcome(cond)
        taken = cond if lb.taken_means_true else not cond
        next_addr = lb.target_addr if taken else lb.fallthrough_addr
        return self._emit(lb, taken, next_addr)


class TraceWalker:
    """Iterates the dynamic execution of a linked program.

    The walker is the simulator's oracle: it knows the true path.  The
    call stack holds ISA return addresses, so returns land on whatever
    the layout placed after the call (possibly a stub).  A return with an
    empty stack restarts at the program entry — synthetic main functions
    loop forever, so this only guards against malformed workloads.

    Walkers over one (program, seed) pair share a memoized
    :class:`TraceRecord`: the first drives the behaviour machinery, the
    rest replay its interned block stream — which is what lets
    ``run_matrix`` amortize trace generation across the (width,
    architecture) cells of one image.
    """

    def __init__(self, program: Program, seed: int) -> None:
        self.program = program
        record = program._trace_records.get(seed)
        if record is None:
            record = program._trace_records[seed] = TraceRecord(program, seed)
        self.record = record
        self._pos = 0
        self.blocks_walked = 0
        self.instructions_walked = 0

    def __iter__(self) -> Iterator[DynBlock]:
        return self

    def __next__(self) -> DynBlock:
        record = self.record
        blocks = record.blocks
        pos = self._pos
        if pos >= len(blocks):
            record.extend()
        dyn = blocks[pos]
        self._pos = pos + 1
        self.blocks_walked += 1
        self.instructions_walked += dyn.size
        return dyn
