"""Tests for CFG profiling and ISA-level trace walking."""

import pytest

from repro.common.types import BranchKind
from repro.isa.layout import natural_order, optimized_order
from repro.isa.program import link
from repro.isa.trace import TraceWalker, branch_counts, profile_edges
from repro.isa.workloads import build_benchmark, prepare_program, ref_trace_seed

from helpers import build_tiny_cfg


class TestProfileEdges:
    def test_counts_sum_to_walk_length(self, tiny_cfg):
        edges = profile_edges(tiny_cfg, seed=1, n_blocks=500)
        assert sum(edges.values()) == 500

    def test_edges_are_real(self, tiny_cfg):
        edges = profile_edges(tiny_cfg, seed=1, n_blocks=500)
        for (src, dst) in edges:
            assert dst in tiny_cfg.block(src).successors() or (
                tiny_cfg.block(src).kind is BranchKind.RET
            )

    def test_hot_edge_dominates(self, tiny_cfg):
        # A -> B (90%) should dominate A -> C (10%).
        edges = profile_edges(tiny_cfg, seed=1, n_blocks=2000)
        assert edges[(0, 1)] > 3 * edges.get((0, 2), 0)

    def test_deterministic(self, tiny_cfg):
        e1 = profile_edges(tiny_cfg, seed=42, n_blocks=300)
        e2 = profile_edges(build_tiny_cfg(), seed=42, n_blocks=300)
        assert e1 == e2


class TestTraceWalker:
    def test_control_transfers_consistent(self, tiny_program):
        walker = TraceWalker(tiny_program, seed=5)
        prev = None
        for _ in range(500):
            dyn = next(walker)
            if prev is not None:
                assert dyn.addr == prev.next_addr
            if dyn.taken:
                assert dyn.next_addr != dyn.lb.fallthrough_addr or (
                    dyn.kind is BranchKind.RET
                )
            else:
                assert dyn.next_addr == dyn.lb.fallthrough_addr
            prev = dyn

    def test_only_controls_can_take(self, tiny_program):
        walker = TraceWalker(tiny_program, seed=5)
        for _ in range(300):
            dyn = next(walker)
            if dyn.kind is BranchKind.NONE:
                assert not dyn.taken

    def test_walker_counts(self, tiny_program):
        walker = TraceWalker(tiny_program, seed=5)
        sizes = [next(walker).size for _ in range(100)]
        assert walker.blocks_walked == walker._pos == 100
        assert walker.instructions_walked == sum(sizes) > 0

    def test_deterministic(self, tiny_program):
        w1 = TraceWalker(tiny_program, seed=11)
        w2 = TraceWalker(tiny_program, seed=11)
        for _ in range(200):
            a, b = next(w1), next(w2)
            assert (a.addr, a.taken, a.next_addr) == (b.addr, b.taken, b.next_addr)

    def test_different_seeds_diverge(self, tiny_program):
        w1 = TraceWalker(tiny_program, seed=1)
        w2 = TraceWalker(tiny_program, seed=2)
        path1 = [next(w1).addr for _ in range(200)]
        path2 = [next(w2).addr for _ in range(200)]
        assert path1 != path2


class TestLayoutInvariance:
    """The same seed must walk the same CFG-level path in any layout."""

    def test_origin_sequence_identical_across_layouts(self):
        cfg = build_benchmark("gzip", scale=0.3)
        base = link(cfg, natural_order(cfg), seed=1)
        profile = profile_edges(cfg, seed=99, n_blocks=20000)
        opt = link(cfg, optimized_order(cfg, profile), seed=1)

        w_base = TraceWalker(base, seed=7)
        w_opt = TraceWalker(opt, seed=7)

        def origins(walker, n):
            out = []
            while len(out) < n:
                dyn = next(walker)
                if dyn.lb.origin is not None:
                    out.append(dyn.lb.origin)
            return out

        assert origins(w_base, 2000) == origins(w_opt, 2000)

    def test_instruction_counts_close_across_layouts(self):
        """Stubs add a few instructions, but the real work is identical."""
        base = prepare_program("gzip", optimized=False, scale=0.3)
        opt = prepare_program("gzip", optimized=True, scale=0.3)
        seed = ref_trace_seed("gzip")

        def real_instructions(program, n_origin_blocks):
            walker = TraceWalker(program, seed)
            total = 0
            seen = 0
            while seen < n_origin_blocks:
                dyn = next(walker)
                if dyn.lb.origin is not None:
                    total += dyn.size
                    seen += 1
            return total

        a = real_instructions(base, 5000)
        b = real_instructions(opt, 5000)
        assert a == b


class TestPackedBranchCounts:
    """``DynBlock.counts`` packs a block's branch, conditional-branch
    and taken-branch counts; the run kernel sums it per block."""

    @staticmethod
    def _blocks(name, optimized):
        program = prepare_program(name, optimized=optimized, scale=0.4)
        record = TraceWalker(program, ref_trace_seed(name)).record
        record.extend()
        record.extend()
        return record.blocks

    @staticmethod
    def _recount(blocks):
        branches = [d for d in blocks if d.kind is not BranchKind.NONE]
        return (
            len(branches),
            sum(d.kind is BranchKind.COND for d in branches),
            sum(bool(d.taken) for d in branches),
        )

    @pytest.mark.parametrize("optimized", [False, True])
    @pytest.mark.parametrize("name", ["gzip", "twolf"])
    def test_sum_equals_an_explicit_recount(self, name, optimized):
        blocks = self._blocks(name, optimized)
        recount = self._recount(blocks)
        assert min(recount) > 0
        assert branch_counts(sum(d.counts for d in blocks)) == recount

    def test_fields_do_not_carry_past_2_32(self):
        samples = {}  # one block per distinct packed value
        for dyn in self._blocks("gzip", True):
            samples.setdefault(dyn.counts, dyn)
        # No branch; a conditional not taken or taken; an
        # unconditional transfer (always taken).
        assert len(samples) == 4
        n = 2 ** 32 + 5  # every block n times: each field passes 2**32
        expected = tuple(n * c for c in self._recount(samples.values()))
        assert min(expected) > 2 ** 32
        assert branch_counts(n * sum(samples)) == expected
