"""Ablation studies for the design choices the paper discusses.

* **Cache line width** (Fig. 7 / §3.4): the stream architecture reads a
  single, very wide line per cycle; narrower lines reintroduce the
  misalignment problem and cut the effective fetch width.
* **FTQ depth** (§3.3): the FTQ tolerates predictor/cache rate mismatch;
  depth 0 (well, 1) couples them tightly.
* **Selective trace storage / partial matching** (§4.1 footnote): the
  paper uses selective storage and reports partial matching *hurts*
  with layout-optimized codes.
* **Cascade second level**: how much of the stream predictor's accuracy
  comes from path correlation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence

from repro.common.params import (
    CacheParams,
    MachineParams,
    default_machine,
)
from repro.core.results import SimulationResult
from repro.experiments.configs import build_processor
from repro.experiments.reporting import format_table
from repro.fetch.stream_predictor import StreamPredictorConfig
from repro.isa.program import Program
from repro.isa.workloads import prepare_program, ref_trace_seed


def _run(
    arch: str,
    program: Program,
    benchmark: str,
    width: int,
    instructions: int,
    machine: MachineParams = None,
    engine_mode: str = None,
    **overrides,
) -> SimulationResult:
    processor = build_processor(
        arch, program, width,
        benchmark=benchmark, optimized=True,
        trace_seed=ref_trace_seed(benchmark),
        machine=machine,
        engine_mode=engine_mode,
        **overrides,
    )
    return processor.run(instructions, warmup=instructions // 3)


def line_width_sweep(
    benchmark: str,
    line_bytes_options: Sequence[int] = (16, 32, 64, 128, 256),
    width: int = 8,
    instructions: int = 60_000,
    scale: float = 1.0,
    engine_mode: str = None,
) -> str:
    """Fig. 7: stream fetch IPC vs. instruction cache line width."""
    program = prepare_program(benchmark, optimized=True, scale=scale)
    rows: List[List[object]] = []
    for line_bytes in line_bytes_options:
        base = default_machine(width)
        memory = replace(
            base.memory,
            il1=CacheParams(
                size_bytes=base.memory.il1.size_bytes,
                assoc=base.memory.il1.assoc,
                line_bytes=line_bytes,
            ),
        )
        machine = replace(base, memory=memory)
        result = _run("stream", program, benchmark, width, instructions,
                      machine=machine, engine_mode=engine_mode)
        rows.append([
            line_bytes,
            line_bytes // 4,
            result.fetch_ipc,
            result.ipc,
            result.memory_stats["il1_miss_rate"],
        ])
    return format_table(
        ["line bytes", "instrs/line", "fetch IPC", "IPC", "L1I miss rate"],
        rows,
        title=f"Figure 7 ablation: stream fetch vs. I-cache line width "
              f"({benchmark}, {width}-wide, optimized)",
    )


def ftq_depth_sweep(
    benchmark: str,
    depths: Sequence[int] = (1, 2, 4, 8),
    width: int = 8,
    instructions: int = 60_000,
    scale: float = 1.0,
    engine_mode: str = None,
) -> str:
    """FTQ depth sensitivity of the stream front-end."""
    program = prepare_program(benchmark, optimized=True, scale=scale)
    rows: List[List[object]] = []
    for depth in depths:
        base = default_machine(width)
        machine = replace(base, core=replace(base.core, ftq_entries=depth))
        result = _run("stream", program, benchmark, width, instructions,
                      machine=machine, engine_mode=engine_mode)
        rows.append([depth, result.fetch_ipc, result.ipc])
    return format_table(
        ["FTQ entries", "fetch IPC", "IPC"],
        rows,
        title=f"FTQ depth ablation ({benchmark}, {width}-wide, optimized)",
    )


def trace_storage_ablation(
    benchmark: str,
    width: int = 8,
    instructions: int = 60_000,
    scale: float = 1.0,
    engine_mode: str = None,
) -> str:
    """Selective trace storage and partial matching on/off."""
    program = prepare_program(benchmark, optimized=True, scale=scale)
    rows: List[List[object]] = []
    variants = [
        ("selective (paper)", dict(selective_storage=True,
                                   partial_matching=False)),
        ("store everything", dict(selective_storage=False,
                                  partial_matching=False)),
        ("+ partial matching", dict(selective_storage=True,
                                    partial_matching=True)),
    ]
    for name, kwargs in variants:
        result = _run("trace", program, benchmark, width, instructions,
                      engine_mode=engine_mode, **kwargs)
        stats = result.engine_stats
        hits = stats.get("tc_hits", 0)
        misses = stats.get("tc_misses", 0)
        rows.append([
            name,
            result.ipc,
            result.fetch_ipc,
            hits / max(hits + misses, 1),
        ])
    return format_table(
        ["trace cache variant", "IPC", "fetch IPC", "TC hit rate"],
        rows,
        title=f"Trace storage ablation ({benchmark}, {width}-wide, optimized)",
    )


def cascade_ablation(
    benchmark: str,
    width: int = 8,
    instructions: int = 60_000,
    scale: float = 1.0,
    engine_mode: str = None,
) -> str:
    """Stream predictor: full cascade vs. first-level-only."""
    program = prepare_program(benchmark, optimized=True, scale=scale)
    rows: List[List[object]] = []
    variants = [
        ("cascade (paper)", StreamPredictorConfig()),
        ("address table only", replace(
            StreamPredictorConfig(), second_entries=4, second_assoc=1
        )),
        ("double first level", replace(
            StreamPredictorConfig(), first_entries=2048,
            second_entries=4, second_assoc=1,
        )),
    ]
    for name, config in variants:
        result = _run("stream", program, benchmark, width, instructions,
                      engine_mode=engine_mode, predictor_config=config)
        rows.append([
            name,
            result.ipc,
            100.0 * result.branch_misprediction_rate,
        ])
    return format_table(
        ["stream predictor variant", "IPC", "mispred %"],
        rows,
        title=f"Cascade ablation ({benchmark}, {width}-wide, optimized)",
    )
