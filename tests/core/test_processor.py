"""Integration tests for the trace-driven processor."""

import pytest

from repro.common.params import default_machine
from repro.core.processor import Processor, _TraceCursor
from repro.experiments.configs import build_engine, build_processor
from repro.isa.trace import TraceWalker
from repro.isa.workloads import prepare_program, ref_trace_seed
from repro.memory.hierarchy import MemoryHierarchy


def make_processor(program, arch="stream", width=8, seed=5):
    machine = default_machine(width)
    mem = MemoryHierarchy(machine.memory)
    engine = build_engine(arch, program, machine, mem)
    walker = TraceWalker(program, seed=seed)
    return Processor(engine, walker, machine, mem)


class TestTraceCursor:
    def test_tracks_addresses(self, tiny_program):
        walker = TraceWalker(tiny_program, seed=5)
        shadow = TraceWalker(tiny_program, seed=5)
        cursor = _TraceCursor(walker)
        for _ in range(50):
            dyn = next(shadow)
            for i in range(dyn.size):
                assert cursor.addr == dyn.addr + 4 * i
                assert cursor.at_block_end == (i == dyn.size - 1)
                if cursor.at_block_end:
                    assert cursor.actual_next == dyn.next_addr
                else:
                    assert cursor.actual_next == cursor.addr + 4
                cursor.advance()


class TestRunBasics:
    def test_ipc_positive_and_bounded(self, tiny_program):
        result = make_processor(tiny_program).run(4000)
        assert 0 < result.ipc <= 8

    def test_warmup_excludes_events(self, tiny_program):
        full = make_processor(tiny_program).run(6000)
        measured = make_processor(tiny_program).run(6000, warmup=3000)
        assert measured.instructions < full.instructions
        assert measured.mispredictions <= full.mispredictions
        assert measured.cycles < full.cycles

    def test_wrong_path_instructions_counted(self, gzip_programs):
        base, _ = gzip_programs
        result = make_processor(base, seed=ref_trace_seed("gzip")).run(20000)
        # Mispredictions exist, so wrong-path fetch must have happened.
        assert result.mispredictions > 0
        assert result.wrong_path_instructions > 0

    def test_branch_counts_match_trace(self, tiny_program):
        """Processor branch accounting equals an independent trace count."""
        result = make_processor(tiny_program).run(5000)
        walker = TraceWalker(tiny_program, seed=5)
        branches = taken = instrs = 0
        while instrs < result.instructions:
            dyn = next(walker)
            instrs += dyn.size
            if dyn.kind.is_control:
                if instrs <= result.instructions:
                    branches += 1
                    taken += dyn.taken
        assert abs(result.branches - branches) <= 2
        assert abs(result.taken_branches - taken) <= 2


class TestCrossEngineConsistency:
    """All engines execute the same committed instruction stream."""

    @pytest.mark.parametrize("arch", ["ev8", "ftb", "stream", "trace"])
    def test_same_branch_counts(self, arch, tiny_program):
        result = make_processor(tiny_program, arch=arch).run(5000)
        reference = make_processor(tiny_program, arch="ev8").run(5000)
        assert abs(result.branches - reference.branches) <= 2
        assert abs(result.taken_branches - reference.taken_branches) <= 2


class TestBackpressure:
    def test_rob_gates_fetch(self, gzip_programs):
        """A tiny ROB must create stall cycles and reduce IPC."""
        base, _ = gzip_programs
        from dataclasses import replace
        machine = default_machine(8)
        small = replace(machine, core=replace(machine.core, rob_size=16))
        mem_a = MemoryHierarchy(machine.memory)
        mem_b = MemoryHierarchy(small.memory)
        seed = ref_trace_seed("gzip")
        normal = Processor(
            build_engine("stream", base, machine, mem_a),
            TraceWalker(base, seed), machine, mem_a,
        ).run(15000)
        tiny = Processor(
            build_engine("stream", base, small, mem_b),
            TraceWalker(base, seed), small, mem_b,
        ).run(15000)
        assert tiny.ipc < normal.ipc
        assert tiny.rob_stall_cycles > normal.rob_stall_cycles


class TestDataStreamStart:
    def test_processor_starts_at_the_trace_head_on_a_cold_l1d(
            self, tiny_program):
        """The data stream holds the L1D outcomes from the trace's first
        access on: a processor that starts elsewhere is refused."""
        machine = default_machine(8)
        walked = TraceWalker(tiny_program, seed=5)
        next(walked)
        mem = MemoryHierarchy(machine.memory)
        with pytest.raises(ValueError, match="head of its trace"):
            Processor(build_engine("ev8", tiny_program, machine, mem),
                      walked, machine, mem)
        mem.dl1.accesses = 1
        with pytest.raises(ValueError, match="cold L1D"):
            Processor(build_engine("ev8", tiny_program, machine, mem),
                      TraceWalker(tiny_program, seed=5), machine, mem)


class TestBuildProcessorHelper:
    def test_build_processor(self, gzip_programs):
        base, _ = gzip_programs
        processor = build_processor("ftb", base, width=4,
                                    trace_seed=ref_trace_seed("gzip"))
        result = processor.run(5000)
        assert result.width == 4
        assert result.engine == "ftb"
