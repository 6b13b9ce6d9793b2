"""Tests for repro.common.types, and the engines' line arithmetic
over ``INSTRUCTION_BYTES``."""

from types import SimpleNamespace

import pytest

from repro.common.types import INSTRUCTION_BYTES, BranchKind, InstrClass
from repro.fetch.base import FetchEngine


def instructions_to_line_end(addr: int, line_bytes: int) -> int:
    """The engines' ``FetchEngine._instrs_to_line_end`` for one line size."""
    engine = SimpleNamespace(line_bytes=line_bytes)
    return FetchEngine._instrs_to_line_end(engine, addr)


class TestBranchKind:
    def test_none_is_not_control(self):
        assert not BranchKind.NONE.is_control

    @pytest.mark.parametrize(
        "kind", [BranchKind.COND, BranchKind.JUMP, BranchKind.CALL,
                 BranchKind.RET, BranchKind.IND]
    )
    def test_controls(self, kind):
        assert kind.is_control

    def test_unconditional_set(self):
        assert not BranchKind.COND.is_unconditional
        assert BranchKind.JUMP.is_unconditional
        assert BranchKind.CALL.is_unconditional
        assert BranchKind.RET.is_unconditional
        assert BranchKind.IND.is_unconditional

    def test_static_targets(self):
        assert BranchKind.COND.has_static_target
        assert BranchKind.JUMP.has_static_target
        assert BranchKind.CALL.has_static_target
        assert not BranchKind.RET.has_static_target
        assert not BranchKind.IND.has_static_target


class TestInstrClass:
    def test_latencies_positive(self):
        for cls in InstrClass:
            assert cls.base_latency >= 1

    def test_mul_slower_than_alu(self):
        assert InstrClass.MUL.base_latency > InstrClass.ALU.base_latency


class TestAddressHelpers:
    def test_instructions_to_line_end_full_line(self):
        assert instructions_to_line_end(0x1000, 64) == 64 // INSTRUCTION_BYTES

    def test_instructions_to_line_end_last_slot(self):
        assert instructions_to_line_end(0x1000 + 60, 64) == 1

    @pytest.mark.parametrize("offset", range(0, 64, 4))
    def test_line_end_always_in_range(self, offset):
        n = instructions_to_line_end(0x2000 + offset, 64)
        assert 1 <= n <= 16
