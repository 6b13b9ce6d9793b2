"""Fundamental types shared across the simulator.

The reproduction models an abstract fixed-width ISA (4-byte instructions,
like the Alpha ISA used in the paper).  Control-flow instructions come in
five kinds; everything else is ``NONE`` from the front-end's perspective.
"""

from __future__ import annotations

import enum

#: Instruction size in bytes (Alpha-like fixed-width ISA).
INSTRUCTION_BYTES = 4


class BranchKind(enum.IntEnum):
    """Kind of the control-flow instruction terminating a basic block.

    ``NONE`` means the block simply falls through into its successor
    (no control instruction at the end).
    """

    NONE = 0
    #: Conditional direct branch: taken -> target, not-taken -> fall-through.
    COND = 1
    #: Unconditional direct jump.
    JUMP = 2
    #: Direct call; pushes the return address on the RAS.
    CALL = 3
    #: Return; target comes from the call stack / RAS.
    RET = 4
    #: Indirect jump (e.g. switch tables, virtual dispatch).
    IND = 5

    @property
    def is_control(self) -> bool:
        """True for any real control-flow instruction."""
        return self is not BranchKind.NONE

    @property
    def is_unconditional(self) -> bool:
        """True when the instruction always transfers control."""
        return self in _UNCONDITIONAL

    @property
    def has_static_target(self) -> bool:
        """True when the target is encoded in the instruction itself."""
        return self in _STATIC_TARGET


_UNCONDITIONAL = frozenset(
    {BranchKind.JUMP, BranchKind.CALL, BranchKind.RET, BranchKind.IND}
)
_STATIC_TARGET = frozenset({BranchKind.COND, BranchKind.JUMP, BranchKind.CALL})


class InstrClass(enum.IntEnum):
    """Execution class of an instruction, used by the back-end model."""

    ALU = 0
    MUL = 1
    LOAD = 2
    STORE = 3
    BRANCH = 4

    @property
    def base_latency(self) -> int:
        """Execution latency in cycles, before memory effects."""
        return _LATENCY[self]


_LATENCY = {
    InstrClass.ALU: 1,
    InstrClass.MUL: 3,
    InstrClass.LOAD: 1,  # plus D-cache latency modelled separately
    InstrClass.STORE: 1,
    InstrClass.BRANCH: 1,
}
