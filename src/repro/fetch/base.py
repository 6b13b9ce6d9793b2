"""Fetch engine scaffolding shared by all four front-ends.

Engine / processor contract
---------------------------

Each cycle the processor calls :meth:`FetchEngine.cycle`, which returns
either ``None`` (front-end stalled: I-cache miss in progress, decode
bubble, empty FTQ, or waiting for a branch to resolve) or a *bundle* —
a list of :class:`FetchFragment` tuples
``(start, count, pred_next, ckpt, payload)`` covering at most ``width``
instructions in total.  A fragment is one straight-line run of
``count`` instructions at ``start, start+4, ...``:

* every *interior* instruction is implicitly predicted sequential
  (successor ``addr + 4``) and carries no checkpoint or payload —
  engines must end a fragment at every control instruction they
  recognised, so fragment interiors never contain one;
* ``pred_next`` is the engine's prediction for the successor of the
  fragment's *last* instruction (``start + 4*count`` for a plain
  sequential run; the predicted target at branches; ``None`` means the
  engine has no target and stalls until the processor redirects it);
* ``ckpt`` — recovery checkpoint (RAS shadow state) attached to the
  final instruction, handed back via :meth:`FetchEngine.redirect`;
* ``payload`` — opaque prediction bookkeeping for the final
  instruction, returned to the engine at commit (e.g. 2bcgskew bank
  indices) so tables can be trained with the exact state used at
  prediction time.

Handing off whole runs instead of per-instruction tuples is what lets
the processor dispatch a fragment's block segments through the
back-end's batched scheduler in one call each, and it makes bundle
construction O(fragments) instead of O(instructions) in the engines.

The processor verifies the prediction chain against its trace oracle.
On a divergence it keeps calling ``cycle`` so the engine fetches down
its own (wrong) speculative path — polluting caches and speculative
history — until the branch resolves, then calls
:meth:`FetchEngine.redirect`.

Commit feedback: the processor calls :meth:`FetchEngine.note_commit`
once per *correct-path* dynamic block, in commit order, with the payload
of its terminal branch and a mispredicted flag.  All predictor table
updates and commit-side history pushes happen there, as in the paper.

Decode-stage fixups (misfetches) are internal to engines: when fetch
runs over an unpredicted unconditional control instruction, the engine
truncates the bundle, charges itself a decode bubble and resteers —
never surfacing a resolution-time misprediction for something decode
can fix.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

from repro.common.params import MachineParams
from repro.common.stats import CounterBag
from repro.common.types import INSTRUCTION_BYTES, BranchKind
from repro.isa.program import LinearBlock, Program
from repro.isa.trace import DynBlock
from repro.memory.hierarchy import MemoryHierarchy

#: (start, count, pred_next, ckpt, payload) — one straight-line run.
FetchFragment = Tuple[int, int, Optional[int], object, object]


class FetchEngine(ABC):
    """Base class wiring program, memory and bookkeeping together."""

    name = "base"

    def __init__(
        self,
        program: Program,
        machine: MachineParams,
        mem: MemoryHierarchy,
    ) -> None:
        self.program = program
        self.machine = machine
        self.mem = mem
        self.width = machine.core.width
        self.line_bytes = machine.memory.il1.line_bytes
        self.decode_bubble = machine.core.decode_depth
        self.stats = CounterBag()
        # The two per-cycle counters are integer attributes (bumped on
        # every productive fetch cycle); they are merged back into the
        # CounterBag view by stats_dict().
        self.fetch_cycles = 0
        self.fetched_instructions = 0
        #: The front-end is busy (miss/bubble) until this cycle.
        self._busy_until = 0
        #: Set when the engine has no predicted target and must wait.
        self._waiting_resolve = False
        # Image bounds for the per-cycle "did wrong-path fetch run off
        # the program?" check: the linked image is gap-free, so a bounds
        # comparison is equivalent to the bisect lookup and much cheaper.
        self._image_start = program.base_address
        self._image_end = program.end_address

    # ------------------------------------------------------------------
    # the processor-facing API
    # ------------------------------------------------------------------
    @abstractmethod
    def cycle(self, now: int) -> Optional[List[FetchFragment]]:
        """Advance one cycle; return a fetched bundle or ``None``."""

    @abstractmethod
    def redirect(
        self,
        now: int,
        correct_addr: int,
        ckpt: object,
        resolved: "DynBlock | None" = None,
    ) -> None:
        """Resolution-time redirect to the correct path.

        ``resolved`` is the dynamic block whose terminal branch caused
        the redirect; engines use its actual outcome to repair their
        speculative history registers precisely (per-branch shadow
        checkpoints, as in the EV8 and the paper's §3.2 RAS repair).
        """

    @abstractmethod
    def note_commit(
        self, dyn: DynBlock, payload: object, mispredicted: bool
    ) -> None:
        """Commit-order feedback for one correct-path dynamic block."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _stall(self, now: int, cycles: int) -> None:
        """Charge a front-end bubble (decode redirect, miss latency)."""
        until = now + cycles
        if until > self._busy_until:
            self._busy_until = until

    def _is_busy(self, now: int) -> bool:
        return now < self._busy_until or self._waiting_resolve

    def _instrs_to_line_end(self, addr: int) -> int:
        offset = addr & (self.line_bytes - 1)
        return (self.line_bytes - offset) // INSTRUCTION_BYTES

    def _fetch_line(self, now: int, addr: int) -> bool:
        """Access the I-cache; on a miss, stall and return False."""
        mem = self.mem
        if mem.il1.access(addr):
            # L1I hit: the hit latency is the pipeline's base cost.
            return True
        extra = mem._fill_from_l2_instr(addr)
        if extra > 0:
            self.stats.add("icache_miss_stalls")
            self._stall(now, extra)
            return False
        return True  # pragma: no cover - fill latencies are positive

    def _on_image(self, addr: int) -> bool:
        """True when ``addr`` is inside the program image (O(1))."""
        return self._image_start <= addr < self._image_end

    def stats_dict(self) -> dict:
        out = self.stats.as_dict()
        out["fetch_cycles"] = out.get("fetch_cycles", 0) + self.fetch_cycles
        out["fetched_instructions"] = (
            out.get("fetched_instructions", 0) + self.fetched_instructions
        )
        return out


def scan_run(
    program: Program, addr: int, max_instrs: int
) -> Tuple[List[Tuple[int, LinearBlock]], int]:
    """Scan a straight-line run of up to ``max_instrs`` from ``addr``.

    Returns ``(controls, n)`` where ``controls`` lists the addresses of
    control instructions (with their blocks) inside the run, in order,
    and ``n`` is the number of instructions actually available before
    the program image ends (== ``max_instrs`` in the normal case).

    This models the pre-decode information fetch engines read alongside
    the instruction bytes.  Results are memoized on the program (they
    are a pure function of the image): fetch engines re-scan the same
    windows on every loop iteration and on every wrong-path replay.
    Callers must treat the returned list as read-only.
    """
    cache = program._scan_cache
    key = (addr, max_instrs)
    hit = cache.get(key)
    if hit is not None:
        return hit
    controls: List[Tuple[int, LinearBlock]] = []
    # One bisect locates the first block; the image is gap-free, so the
    # rest of the run walks the ordered block list directly instead of
    # re-searching per block.
    try:
        lb, offset = program.block_containing(addr)
    except ValueError:
        cache[key] = (controls, 0)
        return controls, 0
    blocks = program.linear_blocks
    n_blocks = len(blocks)
    idx = lb.index
    scanned = 0
    cursor = addr
    none_kind = BranchKind.NONE
    while scanned < max_instrs:
        size = lb.size
        take = size - offset
        room = max_instrs - scanned
        if take > room:
            take = room
        if lb.kind is not none_kind:
            branch_addr = lb.addr + (size - 1) * INSTRUCTION_BYTES
            pos = (branch_addr - cursor) // INSTRUCTION_BYTES
            if 0 <= pos < take:
                controls.append((branch_addr, lb))
        scanned += take
        cursor += take * INSTRUCTION_BYTES
        idx += 1
        if idx >= n_blocks:
            break
        lb = blocks[idx]
        offset = 0
    cache[key] = (controls, scanned)
    return controls, scanned
