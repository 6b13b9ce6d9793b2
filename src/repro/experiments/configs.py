"""Table 2 machine configurations, one per fetch architecture.

Every architecture shares the common settings (pipe width 2/4/8, 16
stages, 4-entry FTQ, 64KB 2-way L1I with 4x-width lines, 64KB 2-way L1D,
1MB 4-way L2 at 15 cycles, 100-cycle memory) and differs only in its
prediction machinery:

* ``ev8``    — 2bcgskew (4 x 32K entries, 15-bit history), 2048-entry
  4-way BTB, 8-entry RAS.
* ``ftb``    — 2048-entry 4-way FTB; perceptron (512 perceptrons,
  40-bit global history, 4096 x 14-bit local history); 8-entry RAS.
* ``stream`` — next stream predictor: 1K-entry 4-way first table,
  6K-entry 3-way second table, DOLC 12-2-4-10; 8-entry RAS.
* ``trace``  — next trace predictor: 1K-entry 4-way first level,
  4K-entry 4-way second level, DOLC 9-4-7-9; 32KB 2-way trace cache
  with selective trace storage; 1K-entry 4-way back-up BTB; 8-entry RAS.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.branch.perceptron import PerceptronConfig
from repro.branch.twobcgskew import GskewConfig
from repro.common.params import MachineParams, default_machine
from repro.core.processor import Processor
from repro.core.results import SimulationResult
from repro.fetch.base import FetchEngine
from repro.fetch.ev8 import EV8FetchEngine
from repro.fetch.ftb import FTBFetchEngine
from repro.fetch.stream import StreamFetchEngine
from repro.fetch.stream_predictor import StreamPredictorConfig
from repro.fetch.trace_cache import TraceCacheFetchEngine
from repro.fetch.trace_predictor import TracePredictorConfig
from repro.isa.program import Program
from repro.isa.trace import TraceWalker
from repro.isa.workloads import prepare_program, ref_trace_seed
from repro.memory.hierarchy import MemoryHierarchy

#: Architecture names in the paper's presentation order.
ARCHITECTURES: Tuple[str, ...] = ("ev8", "ftb", "stream", "trace")

#: Display labels matching the paper's figure legends.
ARCH_LABELS: Dict[str, str] = {
    "ev8": "EV8+2bcgskew",
    "ftb": "FTB+perceptron",
    "stream": "Streams",
    "trace": "Tcache+Tpred",
}


def build_engine(
    arch: str,
    program: Program,
    machine: MachineParams,
    mem: MemoryHierarchy,
    **overrides,
) -> FetchEngine:
    """Instantiate one Table 2 fetch engine."""
    if arch == "ev8":
        return EV8FetchEngine(
            program, machine, mem,
            gskew_config=overrides.pop("gskew_config", GskewConfig()),
            **overrides,
        )
    if arch == "ftb":
        return FTBFetchEngine(
            program, machine, mem,
            perceptron_config=overrides.pop(
                "perceptron_config", PerceptronConfig()
            ),
            **overrides,
        )
    if arch == "stream":
        return StreamFetchEngine(
            program, machine, mem,
            predictor_config=overrides.pop(
                "predictor_config", StreamPredictorConfig()
            ),
            **overrides,
        )
    if arch == "trace":
        return TraceCacheFetchEngine(
            program, machine, mem,
            predictor_config=overrides.pop(
                "predictor_config", TracePredictorConfig()
            ),
            **overrides,
        )
    raise ValueError(f"unknown architecture {arch!r}; choose from {ARCHITECTURES}")


def build_processor(
    arch: str,
    program: Program,
    width: int,
    benchmark: str = "?",
    optimized: bool = False,
    trace_seed: Optional[int] = None,
    machine: Optional[MachineParams] = None,
    engine_mode: Optional[str] = None,
    **engine_overrides,
) -> Processor:
    """Assemble a complete simulated machine for one architecture.

    ``engine_mode`` selects accelerated ("accel") or interpreted
    ("interp") execution — results are bit-identical; None means
    the accelerator.
    """
    machine = machine or default_machine(width)
    mem = MemoryHierarchy(machine.memory)
    engine = build_engine(arch, program, machine, mem, **engine_overrides)
    walker = TraceWalker(program, trace_seed if trace_seed is not None else 0)
    return Processor(
        engine, walker, machine, mem,
        benchmark=benchmark, optimized=optimized,
        engine_mode=engine_mode,
    )


def simulate(
    arch: str,
    benchmark: str,
    width: int,
    optimized: bool,
    instructions: int,
    scale: float = 1.0,
    warmup: int = 0,
    program: Optional[Program] = None,
    engine_mode: Optional[str] = None,
    **engine_overrides,
) -> SimulationResult:
    """One-call simulation of a (architecture, benchmark, width, layout).

    Pass ``program`` to reuse an already-linked image across runs (the
    benchmark harness does this to amortize generation time).
    """
    if program is None:
        program = prepare_program(benchmark, optimized=optimized, scale=scale)
    processor = build_processor(
        arch, program, width,
        benchmark=benchmark, optimized=optimized,
        trace_seed=ref_trace_seed(benchmark),
        engine_mode=engine_mode,
        **engine_overrides,
    )
    return processor.run(instructions, warmup=warmup)
