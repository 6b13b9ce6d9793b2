"""Tests for the trace cache storage and the fill-unit descriptor rules."""

import pytest

from repro.common.types import BranchKind
from repro.fetch.trace_cache import TraceStore, _FillBuffer
from repro.fetch.trace_predictor import TraceDescriptor
from repro.isa.program import LinearBlock
from repro.isa.trace import DynBlock


def desc(start=0x1000, outcomes=(True,), shape=((0x1000, 6), (0x1200, 6)),
         nxt=0x2000):
    return TraceDescriptor(
        start=start, outcomes=tuple(outcomes), segments=tuple(shape),
        length=sum(n for _, n in shape), terminal_kind=BranchKind.COND,
        next_addr=nxt,
    )


class TestTraceStore:
    def test_miss_then_hit(self):
        store = TraceStore(entries=64, assoc=2)
        d = desc()
        assert store.lookup(d) is False
        store.insert(d)
        assert store.lookup(d) is True

    def test_outcome_bits_distinguish(self):
        """Same start, different embedded outcomes: distinct traces."""
        store = TraceStore(entries=64, assoc=2)
        store.insert(desc(outcomes=(True,)))
        assert store.lookup(desc(outcomes=(False,))) is False

    def test_reinsert_updates_in_place(self):
        store = TraceStore(entries=64, assoc=2)
        store.insert(desc())
        store.insert(desc())
        assert store.stats["fills"] == 1

    def test_lru_eviction(self):
        store = TraceStore(entries=4, assoc=2)  # 2 sets
        set_stride = 2 * 4  # num_sets * 4 bytes
        a = desc(start=0x1000, shape=((0x1000, 6), (0x1100, 6)))
        b = desc(start=0x1000 + set_stride,
                 shape=((0x1000 + set_stride, 6), (0x1200, 6)))
        c = desc(start=0x1000 + 2 * set_stride,
                 shape=((0x1000 + 2 * set_stride, 6), (0x1300, 6)))
        store.insert(a)
        store.insert(b)
        store.lookup(a)
        store.insert(c)  # evicts b
        assert store.lookup(a)
        assert not store.lookup(b)

    def test_partial_match_prefix(self):
        store = TraceStore(entries=64, assoc=2)
        stored = desc(outcomes=(True,))
        store.insert(stored)
        predicted = TraceDescriptor(
            start=0x1000, outcomes=(True, False),
            segments=((0x1000, 6), (0x1200, 6), (0x1400, 4)),
            length=16, terminal_kind=BranchKind.COND, next_addr=0x9000,
        )
        assert store.partial_match(predicted) == stored

    def test_partial_match_rejects_mismatch(self):
        store = TraceStore(entries=64, assoc=2)
        store.insert(desc(outcomes=(True,)))
        predicted = desc(outcomes=(False,))
        assert store.partial_match(predicted) is None


def block(addr, size, kind=BranchKind.NONE, taken=False, nxt=None):
    """A committed block: ``size`` instructions at ``addr``."""
    lb = LinearBlock(0, addr, size, kind, nxt, None, True)
    return DynBlock(lb, taken, nxt if taken else addr + 4 * size)


class TestFillBuffer:
    def test_contiguous_runs_merge(self):
        fill = _FillBuffer()
        fill.pieces += [block(0x1000, 4),
                        block(0x1010, 3, BranchKind.COND)]  # contiguous
        d = fill.finalize(BranchKind.COND, 0x101C)
        assert d.segments == ((0x1000, 7),)
        assert d.outcomes == (False,)

    def test_taken_branch_starts_new_segment(self):
        fill = _FillBuffer()
        fill.pieces += [block(0x1000, 4, BranchKind.COND, True, 0x2000),
                        block(0x2000, 3)]  # after a taken branch
        d = fill.finalize(BranchKind.NONE, 0x200C)
        assert d.segments == ((0x1000, 4), (0x2000, 3))
        assert d.outcomes == (True,)

    def test_split_piece_carries_branch_only_at_block_end(self):
        """A block cut by the length cap: only the piece that ends the
        block records its branch."""
        fill = _FillBuffer()
        call = block(0x1000, 6, BranchKind.CALL, True, 0x3000)
        fill.pieces += [(call, 0, 4)]
        head = fill.finalize(BranchKind.NONE, 0x1010)
        assert head.call_returns == () and head.length == 4
        fill.pieces += [(call, 4, 2)]
        tail = fill.finalize(BranchKind.CALL, 0x3000)
        assert tail.segments == ((0x1010, 2),)
        assert tail.call_returns == (0x1018,)

    def test_finalize_produces_descriptor_and_resets(self):
        fill = _FillBuffer()
        fill.pieces.append(block(0x1000, 4, BranchKind.COND, True, 0x3000))
        fill.length, fill.conds, fill.mispredicted = 4, 1, True
        d = fill.finalize(BranchKind.COND, 0x3000)
        assert d.start == 0x1000
        assert d.length == 4
        assert d.next_addr == 0x3000
        assert (fill.pieces, fill.length, fill.conds,
                fill.mispredicted) == ([], 0, 0, False)

    def test_recurring_trace_is_interned(self):
        fill = _FillBuffer()
        pieces = [block(0x1000, 4, BranchKind.COND, True, 0x2000)]
        fill.pieces += pieces
        first = fill.finalize(BranchKind.COND, 0x2000)
        fill.pieces += pieces
        assert fill.finalize(BranchKind.COND, 0x2000) is first
