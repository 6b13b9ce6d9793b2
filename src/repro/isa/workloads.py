"""Synthetic SPECint2000-like workloads.

The paper evaluates on the eleven SPEC CPU2000 integer benchmarks (gzip,
vpr, gcc, crafty, parser, eon, perlbmk, gap, vortex, bzip2, twolf) with
Alpha binaries and 300M-instruction ``ref`` traces.  We cannot ship SPEC,
so each benchmark is replaced by a *parameterized program generator*
whose knobs are the statistical properties the fetch architectures
actually respond to:

* code footprint (number of functions/blocks) — I-cache and predictor
  table pressure; gcc and vortex are large, gzip and bzip2 small;
* basic-block size distribution — the 5–6 instruction dynamic average of
  integer codes;
* construct mix (loops, hammocks, cold ``if-then`` checks, switches,
  calls) — determines taken-branch density and stream lengths under each
  layout;
* branch behaviour mix (biased / loop-trip / periodic / history- and
  path-correlated / hard) — determines what each predictor can learn;
* ILP profile (dependence distances, load locality) — back-end IPC
  ceiling per benchmark.

Each generator is deterministic given its seed.  ``prepare_program``
builds the linked image for either layout, using a *different* seed for
the layout profile (the paper's ``train`` input) than the one used by
the evaluation trace (``ref``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.common.types import BranchKind
from repro.isa.behavior import (
    Bernoulli,
    BranchBehavior,
    GlobalCorrelated,
    IndirectChooser,
    LoopTrip,
    Pattern,
    PathCorrelated,
)
from repro.isa.cfg import BasicBlock, ControlFlowGraph, Function, IlpProfile
from repro.isa.layout import natural_order, optimized_order
from repro.isa.program import Program, link
from repro.isa.trace import profile_edges

#: Seed salt for the layout profile walk (the paper's "train" input).
TRAIN_SALT = 0x7E57
#: Seed salt for the evaluation trace (the paper's "ref" input).
REF_SALT = 0x0E0F
#: Where images are linked unless a caller says otherwise.  Shared by
#: :func:`prepare_program` and the artifact-store fingerprinting so the
#: built image and its cache key can never disagree about the default.
DEFAULT_BASE_ADDRESS = 0x10000


@dataclass(frozen=True)
class WorkloadSpec:
    """All the knobs of one synthetic benchmark."""

    name: str
    description: str
    seed: int
    # --- code footprint -------------------------------------------------
    n_hot_functions: int
    n_cold_functions: int
    max_call_level: int
    constructs_per_function: float
    constructs_in_main: float
    block_size_mean: float
    block_size_sd: float
    max_nesting: int
    # --- construct mix (relative weights) -------------------------------
    w_straight: float
    w_loop: float
    w_hammock: float
    w_ifthen: float
    w_switch: float
    w_call: float
    # --- branch behaviour mix for hammock conditions ---------------------
    frac_pattern: float
    frac_global_corr: float
    frac_path_corr: float
    frac_weak: float
    bias_lo: float
    bias_hi: float
    p_true_hot: float
    cold_then_lo: float
    cold_then_hi: float
    loop_trip_mean: float
    loop_trip_sigma: float
    switch_arity: int
    switch_phase: int
    behaviour_noise: float
    ilp: IlpProfile

    def scaled(self, scale: float) -> "WorkloadSpec":
        """Scale the code footprint (functions) by ``scale``."""
        if scale == 1.0:
            return self
        return replace(
            self,
            n_hot_functions=max(2, round(self.n_hot_functions * scale)),
            n_cold_functions=max(1, round(self.n_cold_functions * scale)),
        )


def _ilp(
    dep: float,
    load: float = 0.22,
    store: float = 0.10,
    mul: float = 0.04,
    streaming: float = 0.7,
    footprint: int = 1 << 19,
) -> IlpProfile:
    return IlpProfile(
        mean_dep_distance=dep,
        load_fraction=load,
        store_fraction=store,
        mul_fraction=mul,
        load_streaming_fraction=streaming,
        load_random_footprint=footprint,
    )


# ----------------------------------------------------------------------
# The eleven SPECint2000 stand-ins.  Footprints, branch mixes and ILP
# are calibrated to the characterizations in the literature: gcc and
# vortex are large-footprint; gzip and bzip2 are small loopy codes with
# streaming memory behaviour; twolf and vpr carry many data-dependent
# (hard) branches; perlbmk and gap lean on indirect dispatch; eon is
# call-heavy C++.
# ----------------------------------------------------------------------

_SPECS: Dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> None:
    if spec.name in _SPECS:
        raise ValueError(f"duplicate benchmark {spec.name}")
    _SPECS[spec.name] = spec


_register(WorkloadSpec(
    name="gzip", description="compression: small loopy kernel, biased branches",
    seed=1640, n_hot_functions=22, n_cold_functions=8, max_call_level=3,
    constructs_per_function=7.0, constructs_in_main=10.0,
    block_size_mean=6.0, block_size_sd=2.8, max_nesting=3,
    w_straight=2.0, w_loop=2.6, w_hammock=1.6, w_ifthen=1.6, w_switch=0.2,
    w_call=1.0,
    frac_pattern=0.10, frac_global_corr=0.06, frac_path_corr=0.05,
    frac_weak=0.02, bias_lo=0.96, bias_hi=0.998, p_true_hot=0.55,
    cold_then_lo=0.02, cold_then_hi=0.10,
    loop_trip_mean=34.0, loop_trip_sigma=0.7, switch_arity=6, switch_phase=0,
    behaviour_noise=0.005,
    ilp=_ilp(dep=5.5, load=0.20, streaming=0.85),
))

_register(WorkloadSpec(
    name="vpr", description="FPGA place&route: data-dependent hard branches",
    seed=1750, n_hot_functions=36, n_cold_functions=14, max_call_level=4,
    constructs_per_function=7.0, constructs_in_main=9.0,
    block_size_mean=5.2, block_size_sd=2.4, max_nesting=3,
    w_straight=1.8, w_loop=2.0, w_hammock=2.4, w_ifthen=1.6, w_switch=0.2,
    w_call=1.2,
    frac_pattern=0.06, frac_global_corr=0.07, frac_path_corr=0.06,
    frac_weak=0.04, bias_lo=0.93, bias_hi=0.993, p_true_hot=0.55,
    cold_then_lo=0.03, cold_then_hi=0.15,
    loop_trip_mean=18.0, loop_trip_sigma=0.8, switch_arity=5, switch_phase=0,
    behaviour_noise=0.010,
    ilp=_ilp(dep=3.6, load=0.24, streaming=0.55, footprint=1 << 20),
))

_register(WorkloadSpec(
    name="gcc", description="compiler: huge footprint, short blocks, cold code",
    seed=1760, n_hot_functions=150, n_cold_functions=110, max_call_level=5,
    constructs_per_function=8.0, constructs_in_main=10.0,
    block_size_mean=4.6, block_size_sd=2.2, max_nesting=3,
    w_straight=1.8, w_loop=1.2, w_hammock=2.2, w_ifthen=2.6, w_switch=0.8,
    w_call=1.8,
    frac_pattern=0.05, frac_global_corr=0.06, frac_path_corr=0.07,
    frac_weak=0.02, bias_lo=0.95, bias_hi=0.997, p_true_hot=0.52,
    cold_then_lo=0.02, cold_then_hi=0.12,
    loop_trip_mean=14.0, loop_trip_sigma=0.9, switch_arity=10, switch_phase=0,
    behaviour_noise=0.006,
    ilp=_ilp(dep=3.2, load=0.24, streaming=0.55, footprint=1 << 20),
))

_register(WorkloadSpec(
    name="crafty", description="chess: bitboard patterns, deep correlation",
    seed=1860, n_hot_functions=44, n_cold_functions=12, max_call_level=4,
    constructs_per_function=8.0, constructs_in_main=9.0,
    block_size_mean=6.8, block_size_sd=3.0, max_nesting=3,
    w_straight=2.2, w_loop=1.6, w_hammock=2.2, w_ifthen=1.8, w_switch=0.4,
    w_call=1.4,
    frac_pattern=0.12, frac_global_corr=0.08, frac_path_corr=0.06,
    frac_weak=0.02, bias_lo=0.95, bias_hi=0.997, p_true_hot=0.55,
    cold_then_lo=0.02, cold_then_hi=0.12,
    loop_trip_mean=16.0, loop_trip_sigma=0.8, switch_arity=6, switch_phase=0,
    behaviour_noise=0.006,
    ilp=_ilp(dep=4.6, load=0.20, streaming=0.7),
))

_register(WorkloadSpec(
    name="parser", description="NLP: pointer chasing, mispredictable recursion",
    seed=1970, n_hot_functions=40, n_cold_functions=14, max_call_level=5,
    constructs_per_function=7.0, constructs_in_main=8.0,
    block_size_mean=4.8, block_size_sd=2.2, max_nesting=3,
    w_straight=1.6, w_loop=1.6, w_hammock=2.4, w_ifthen=2.0, w_switch=0.3,
    w_call=1.6,
    frac_pattern=0.04, frac_global_corr=0.06, frac_path_corr=0.06,
    frac_weak=0.03, bias_lo=0.93, bias_hi=0.993, p_true_hot=0.50,
    cold_then_lo=0.03, cold_then_hi=0.15,
    loop_trip_mean=12.0, loop_trip_sigma=0.9, switch_arity=5, switch_phase=0,
    behaviour_noise=0.010,
    ilp=_ilp(dep=3.0, load=0.27, streaming=0.4, footprint=1 << 21),
))

_register(WorkloadSpec(
    name="eon", description="C++ ray tracer: call-heavy, predictable branches",
    seed=2520, n_hot_functions=60, n_cold_functions=16, max_call_level=6,
    constructs_per_function=5.5, constructs_in_main=8.0,
    block_size_mean=6.4, block_size_sd=2.8, max_nesting=2,
    w_straight=2.2, w_loop=1.4, w_hammock=1.8, w_ifthen=1.4, w_switch=0.5,
    w_call=2.6,
    frac_pattern=0.10, frac_global_corr=0.05, frac_path_corr=0.06,
    frac_weak=0.01, bias_lo=0.96, bias_hi=0.998, p_true_hot=0.58,
    cold_then_lo=0.02, cold_then_hi=0.08,
    loop_trip_mean=14.0, loop_trip_sigma=0.6, switch_arity=4, switch_phase=40,
    behaviour_noise=0.004,
    ilp=_ilp(dep=4.8, load=0.22, mul=0.08, streaming=0.75),
))

_register(WorkloadSpec(
    name="perlbmk", description="interpreter: big switch dispatch, phases",
    seed=2530, n_hot_functions=70, n_cold_functions=40, max_call_level=5,
    constructs_per_function=7.5, constructs_in_main=9.0,
    block_size_mean=5.0, block_size_sd=2.4, max_nesting=3,
    w_straight=1.8, w_loop=1.4, w_hammock=2.0, w_ifthen=2.0, w_switch=1.4,
    w_call=1.8,
    frac_pattern=0.06, frac_global_corr=0.06, frac_path_corr=0.08,
    frac_weak=0.02, bias_lo=0.95, bias_hi=0.996, p_true_hot=0.52,
    cold_then_lo=0.02, cold_then_hi=0.12,
    loop_trip_mean=13.0, loop_trip_sigma=0.8, switch_arity=14, switch_phase=60,
    behaviour_noise=0.006,
    ilp=_ilp(dep=3.4, load=0.25, streaming=0.5, footprint=1 << 20),
))

_register(WorkloadSpec(
    name="gap", description="group theory: interpreter loops + big integers",
    seed=2540, n_hot_functions=55, n_cold_functions=20, max_call_level=4,
    constructs_per_function=7.5, constructs_in_main=9.0,
    block_size_mean=5.6, block_size_sd=2.6, max_nesting=3,
    w_straight=2.0, w_loop=2.2, w_hammock=1.8, w_ifthen=1.8, w_switch=0.8,
    w_call=1.6,
    frac_pattern=0.08, frac_global_corr=0.06, frac_path_corr=0.06,
    frac_weak=0.02, bias_lo=0.95, bias_hi=0.997, p_true_hot=0.54,
    cold_then_lo=0.02, cold_then_hi=0.10,
    loop_trip_mean=22.0, loop_trip_sigma=0.8, switch_arity=8, switch_phase=30,
    behaviour_noise=0.005,
    ilp=_ilp(dep=4.2, load=0.22, streaming=0.65),
))

_register(WorkloadSpec(
    name="vortex", description="OO database: large footprint, biased checks",
    seed=2550, n_hot_functions=120, n_cold_functions=70, max_call_level=6,
    constructs_per_function=7.0, constructs_in_main=9.0,
    block_size_mean=5.4, block_size_sd=2.4, max_nesting=2,
    w_straight=2.0, w_loop=1.2, w_hammock=1.6, w_ifthen=3.0, w_switch=0.4,
    w_call=2.2,
    frac_pattern=0.06, frac_global_corr=0.04, frac_path_corr=0.06,
    frac_weak=0.01, bias_lo=0.96, bias_hi=0.998, p_true_hot=0.52,
    cold_then_lo=0.01, cold_then_hi=0.08,
    loop_trip_mean=12.0, loop_trip_sigma=0.7, switch_arity=6, switch_phase=0,
    behaviour_noise=0.004,
    ilp=_ilp(dep=3.8, load=0.25, streaming=0.55, footprint=1 << 20),
))

_register(WorkloadSpec(
    name="bzip2", description="compression: tight loops, long trips, streams",
    seed=2560, n_hot_functions=18, n_cold_functions=6, max_call_level=3,
    constructs_per_function=7.5, constructs_in_main=10.0,
    block_size_mean=6.2, block_size_sd=2.8, max_nesting=3,
    w_straight=2.0, w_loop=3.0, w_hammock=1.6, w_ifthen=1.4, w_switch=0.2,
    w_call=0.9,
    frac_pattern=0.10, frac_global_corr=0.07, frac_path_corr=0.04,
    frac_weak=0.02, bias_lo=0.95, bias_hi=0.997, p_true_hot=0.55,
    cold_then_lo=0.02, cold_then_hi=0.10,
    loop_trip_mean=44.0, loop_trip_sigma=0.8, switch_arity=5, switch_phase=0,
    behaviour_noise=0.005,
    ilp=_ilp(dep=5.0, load=0.21, streaming=0.9),
))

_register(WorkloadSpec(
    name="twolf", description="place&route: annealing, hard accept branches",
    seed=3000, n_hot_functions=34, n_cold_functions=12, max_call_level=4,
    constructs_per_function=7.0, constructs_in_main=9.0,
    block_size_mean=5.0, block_size_sd=2.4, max_nesting=3,
    w_straight=1.8, w_loop=1.8, w_hammock=2.6, w_ifthen=1.8, w_switch=0.2,
    w_call=1.2,
    frac_pattern=0.05, frac_global_corr=0.07, frac_path_corr=0.05,
    frac_weak=0.05, bias_lo=0.92, bias_hi=0.990, p_true_hot=0.52,
    cold_then_lo=0.03, cold_then_hi=0.15,
    loop_trip_mean=16.0, loop_trip_sigma=0.8, switch_arity=4, switch_phase=0,
    behaviour_noise=0.012,
    ilp=_ilp(dep=3.2, load=0.25, streaming=0.5, footprint=1 << 20),
))

#: Benchmark order used across figures (matches Figure 9 of the paper).
SPEC_BENCHMARKS: Tuple[str, ...] = (
    "gzip", "vpr", "gcc", "crafty", "parser", "eon",
    "perlbmk", "gap", "vortex", "bzip2", "twolf",
)


def benchmark_spec(name: str) -> WorkloadSpec:
    """Look up the spec for a benchmark by name."""
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {sorted(_SPECS)}"
        ) from None


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------

class _Patch:
    """A successor slot of a block waiting to be wired up."""

    __slots__ = ("block", "attr")

    def __init__(self, block: BasicBlock, attr: str) -> None:
        self.block = block
        self.attr = attr

    def apply(self, target_bid: int) -> None:
        setattr(self.block, self.attr, target_bid)


class _FunctionInfo:
    __slots__ = ("func", "level", "cold", "call_weight")

    def __init__(self, func: Function, level: int, cold: bool, weight: float):
        self.func = func
        self.level = level
        self.cold = cold
        self.call_weight = weight


class _WorkloadBuilder:
    """Generates one benchmark CFG from its spec (deterministic)."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.cfg = ControlFlowGraph(ilp=spec.ilp)
        self.functions: List[_FunctionInfo] = []
        self._construct_weights = [
            ("straight", spec.w_straight),
            ("loop", spec.w_loop),
            ("hammock", spec.w_hammock),
            ("ifthen", spec.w_ifthen),
            ("switch", spec.w_switch),
            ("call", spec.w_call),
        ]

    # -- top level -----------------------------------------------------
    def build(self) -> ControlFlowGraph:
        spec = self.spec
        plan: List[Tuple[int, bool]] = []  # (level, cold)
        for i in range(spec.n_hot_functions):
            plan.append((i % spec.max_call_level, False))
        for i in range(spec.n_cold_functions):
            plan.append((i % spec.max_call_level, True))
        # Generate in ascending level order so call sites can only target
        # already-built (lower-level) functions: a DAG call graph.
        plan.sort(key=lambda item: item[0])
        for idx, (level, cold) in enumerate(plan):
            kind = "cold" if cold else "hot"
            self._gen_function(f"{kind}_f{idx}", level, cold)
        self._gen_main()
        self.cfg.validate()
        return self.cfg

    # -- helpers ---------------------------------------------------------
    def _block_size(self, lo: int = 1) -> int:
        spec = self.spec
        size = round(self.rng.gauss(spec.block_size_mean, spec.block_size_sd))
        return max(lo, min(24, size))

    def _pick_construct(self, depth: int, allow_call: bool) -> str:
        if depth >= self.spec.max_nesting:
            # At the nesting cap only leaf constructs are allowed, which
            # bounds the recursion of region generation.
            return "call" if allow_call and self.rng.random() < 0.25 else "straight"
        weights = []
        for name, w in self._construct_weights:
            if name == "call" and not allow_call:
                w = 0.0
            if name in ("loop", "switch"):
                # Nested loops/switches get progressively rarer; deeply
                # multiplicative trip counts would otherwise trap the
                # trace inside a single loop nest.
                w *= 0.45 ** depth
            weights.append(w)
        total = sum(weights)
        x = self.rng.random() * total
        for (name, _), w in zip(self._construct_weights, weights):
            x -= w
            if x < 0:
                return name
        return "straight"

    def _hammock_behavior(self) -> BranchBehavior:
        spec = self.spec
        rng = self.rng
        x = rng.random()
        if x < spec.frac_pattern:
            length = rng.randint(2, 8)
            pattern = [rng.random() < 0.5 for _ in range(length)]
            if all(pattern) or not any(pattern):
                pattern[0] = not pattern[0]
            return Pattern(pattern)
        x -= spec.frac_pattern
        if x < spec.frac_global_corr:
            nbits = rng.randint(2, 4)
            mask = 0
            if rng.random() < 0.55:
                # Near correlation: within every predictor's history.
                for _ in range(nbits):
                    mask |= 1 << rng.randint(0, 7)
            else:
                # Deep correlation: beyond the 15-bit 2bcgskew history
                # but within the perceptron's 40 bits and the stream /
                # trace predictors' path depth.
                for _ in range(nbits):
                    mask |= 1 << rng.randint(12, 26)
            return GlobalCorrelated(
                mask or 1, noise=spec.behaviour_noise, invert=rng.random() < 0.5
            )
        x -= spec.frac_global_corr
        if x < spec.frac_path_corr:
            return PathCorrelated(
                depth=rng.randint(2, 6),
                salt=rng.randrange(1 << 16),
                noise=spec.behaviour_noise,
            )
        x -= spec.frac_path_corr
        if x < spec.frac_weak:
            # "Hard" data-dependent branches: a predictable majority
            # with a substantial minority, not a pure coin flip.
            p = rng.uniform(0.22, 0.38)
            return Bernoulli(p if rng.random() < 0.5 else 1.0 - p)
        # Biased hammock: the hot side is `then` with prob p_true_hot.
        bias = rng.uniform(spec.bias_lo, spec.bias_hi)
        if rng.random() < spec.p_true_hot:
            return Bernoulli(bias)
        return Bernoulli(1.0 - bias)

    # -- constructs ------------------------------------------------------
    def _region(
        self, func: Function, n_constructs: int, depth: int, allow_call: bool
    ) -> Tuple[int, List[_Patch]]:
        """A straight-line sequence of constructs; returns entry + open ends."""
        entry: Optional[int] = None
        pending: List[_Patch] = []
        for _ in range(max(1, n_constructs)):
            c_entry, c_ends = self._construct(func, depth, allow_call)
            if entry is None:
                entry = c_entry
            for patch in pending:
                patch.apply(c_entry)
            pending = c_ends
        assert entry is not None
        return entry, pending

    def _sub_region(
        self, func: Function, depth: int, allow_call: bool
    ) -> Tuple[int, List[_Patch]]:
        n = 1 if depth >= self.spec.max_nesting else self.rng.randint(1, 2)
        return self._region(func, n, depth, allow_call)

    def _construct(
        self, func: Function, depth: int, allow_call: bool
    ) -> Tuple[int, List[_Patch]]:
        kind = self._pick_construct(depth, allow_call)
        if kind == "straight":
            return self._straight(func)
        if kind == "loop":
            return self._loop(func, depth, allow_call)
        if kind == "hammock":
            return self._hammock(func, depth, allow_call)
        if kind == "ifthen":
            return self._ifthen(func, depth, allow_call)
        if kind == "switch":
            return self._switch(func, depth, allow_call)
        return self._call(func)

    def _straight(self, func: Function) -> Tuple[int, List[_Patch]]:
        block = self.cfg.new_block(func, self._block_size(), BranchKind.NONE)
        return block.bid, [_Patch(block, "succ_false")]

    def _loop(
        self, func: Function, depth: int, allow_call: bool
    ) -> Tuple[int, List[_Patch]]:
        # Loop bodies are meatier than hammock arms: real inner loops
        # contain several conditionals per back-edge, which keeps loop
        # back-edges a minority of all conditional instances.
        n_body = self.rng.randint(2, 4) if depth < self.spec.max_nesting else 1
        body_entry, body_ends = self._region(func, n_body, depth + 1, allow_call)
        spec = self.spec
        # Only outermost loops use the spec's trip scale; inner loops
        # run short trips so nest products stay bounded and the trace
        # keeps visiting the rest of the program.  Inner trips are
        # deterministic (fixed-size sweeps), like most real inner loops;
        # outer trips are data-dependent and jittered.
        if depth == 0:
            mean_trip = spec.loop_trip_mean
            jitter = 0.15
        else:
            mean_trip = min(12.0, max(6.0, spec.loop_trip_mean / 3.0))
            jitter = 0.0
        trip = math.exp(self.rng.gauss(
            math.log(mean_trip), spec.loop_trip_sigma
        ))
        tail = self.cfg.new_block(
            func,
            self._block_size(lo=2),
            BranchKind.COND,
            behavior=LoopTrip(max(1.5, trip), jitter=jitter),
        )
        for patch in body_ends:
            patch.apply(tail.bid)
        tail.succ_true = body_entry  # back edge
        return body_entry, [_Patch(tail, "succ_false")]

    def _hammock(
        self, func: Function, depth: int, allow_call: bool
    ) -> Tuple[int, List[_Patch]]:
        cond = self.cfg.new_block(
            func, self._block_size(lo=2), BranchKind.COND,
            behavior=self._hammock_behavior(),
        )
        then_entry, then_ends = self._sub_region(func, depth + 1, allow_call)
        else_entry, else_ends = self._sub_region(func, depth + 1, allow_call)
        cond.succ_true = then_entry
        cond.succ_false = else_entry
        return cond.bid, then_ends + else_ends

    def _ifthen(
        self, func: Function, depth: int, allow_call: bool
    ) -> Tuple[int, List[_Patch]]:
        spec = self.spec
        p_then = self.rng.uniform(spec.cold_then_lo, spec.cold_then_hi)
        cond = self.cfg.new_block(
            func, self._block_size(lo=2), BranchKind.COND,
            behavior=Bernoulli(p_then),
        )
        then_entry, then_ends = self._sub_region(func, depth + 1, allow_call)
        cond.succ_true = then_entry
        return cond.bid, then_ends + [_Patch(cond, "succ_false")]

    def _switch(
        self, func: Function, depth: int, allow_call: bool
    ) -> Tuple[int, List[_Patch]]:
        spec = self.spec
        arity = self.rng.randint(max(2, spec.switch_arity // 2), spec.switch_arity)
        dispatch = self.cfg.new_block(func, self._block_size(lo=2), BranchKind.IND)
        targets: List[int] = []
        ends: List[_Patch] = []
        for _ in range(arity):
            case_entry, case_ends = self._sub_region(func, depth + 1, allow_call)
            targets.append(case_entry)
            ends.extend(case_ends)
        # Zipf-skewed case weights, shuffled so the hot case is arbitrary.
        weights = [1.0 / (i + 1) ** 1.3 for i in range(arity)]
        self.rng.shuffle(weights)
        dispatch.ind_targets = targets
        dispatch.ind_chooser = IndirectChooser(weights, spec.switch_phase)
        return dispatch.bid, ends

    def _call(self, func: Function) -> Tuple[int, List[_Patch]]:
        callee = self._choose_callee()
        if callee is None:
            return self._straight(func)
        block = self.cfg.new_block(func, self._block_size(lo=2), BranchKind.CALL)
        block.succ_true = callee.entry
        return block.bid, [_Patch(block, "succ_false")]

    def _choose_callee(self) -> Optional[Function]:
        if not self.functions:
            return None
        weights = [info.call_weight for info in self.functions]
        total = sum(weights)
        x = self.rng.random() * total
        for info in self.functions:
            x -= info.call_weight
            if x < 0:
                return info.func
        return self.functions[-1].func

    # -- functions -------------------------------------------------------
    def _gen_function(self, name: str, level: int, cold: bool) -> None:
        spec = self.spec
        func = self.cfg.new_function(name)
        entry = self.cfg.new_block(func, self._block_size(), BranchKind.NONE)
        n = max(1, round(self.rng.gauss(
            spec.constructs_per_function, spec.constructs_per_function * 0.3
        )))
        allow_call = any(info.level < level for info in self.functions)
        body_entry, body_ends = self._region(func, n, 0, allow_call)
        entry.succ_false = body_entry
        ret = self.cfg.new_block(func, self.rng.randint(1, 3), BranchKind.RET)
        for patch in body_ends:
            patch.apply(ret.bid)
        weight = 0.02 if cold else 1.0 / math.sqrt(len(self.functions) + 1)
        self.functions.append(_FunctionInfo(func, level, cold, weight))

    def _gen_main(self) -> None:
        spec = self.spec
        func = self.cfg.new_function("main")
        entry = self.cfg.new_block(func, self._block_size(), BranchKind.NONE)
        n = max(2, round(spec.constructs_in_main))
        body_entry, body_ends = self._region(func, n, 0, allow_call=True)
        entry.succ_false = body_entry
        # Main loops forever: its body ends jump back to the entry block.
        back = self.cfg.new_block(func, 1, BranchKind.JUMP)
        back.succ_true = entry.bid
        for patch in body_ends:
            patch.apply(back.bid)
        self.cfg.entry_bid = entry.bid


def build_benchmark(name: str, scale: float = 1.0) -> ControlFlowGraph:
    """Build the CFG for one synthetic SPECint2000 stand-in."""
    spec = benchmark_spec(name).scaled(scale)
    return _WorkloadBuilder(spec).build()


def prepare_program(
    name: str,
    optimized: bool,
    scale: float = 1.0,
    base_address: int = DEFAULT_BASE_ADDRESS,
    profile_blocks: Optional[int] = None,
) -> Program:
    """Build and link one benchmark in the requested layout.

    The optimized layout is driven by an edge profile collected with the
    ``train`` seed; evaluation traces use the ``ref`` seed (see
    :func:`ref_trace_seed`), reproducing the paper's input split.
    """
    spec = benchmark_spec(name)
    cfg = build_benchmark(name, scale)
    if optimized:
        if profile_blocks is None:
            profile_blocks = max(30000, min(200000, cfg.num_blocks * 50))
        profile = profile_edges(cfg, seed=spec.seed ^ TRAIN_SALT,
                                n_blocks=profile_blocks)
        order = optimized_order(cfg, profile)
    else:
        order = natural_order(cfg)
    return link(cfg, order, base_address=base_address, seed=spec.seed)


def ref_trace_seed(name: str) -> int:
    """The evaluation ("ref" input) trace seed for a benchmark."""
    return benchmark_spec(name).seed ^ REF_SALT


def program_fingerprint_inputs(
    name: str,
    optimized: bool,
    scale: float = 1.0,
    base_address: int = DEFAULT_BASE_ADDRESS,
    profile_blocks: Optional[int] = None,
) -> Dict[str, object]:
    """Every input :func:`prepare_program` consumes, as plain data.

    This is the keying surface of the artifact store's program
    fingerprints (see :mod:`repro.store.fingerprint`): the *full*
    workload spec — knobs, generator seed, ILP profile — not just the
    benchmark name, so two distinct specs sharing a name can never
    alias one image.  The spec rides along as its dataclass so the
    fingerprint canonicalizer tags it with its class name (two
    parameter types with equal fields cannot collide).  Kept next to
    :func:`prepare_program` so the two evolve together.
    """
    return {
        "spec": benchmark_spec(name),
        "scale": scale,
        "optimized": optimized,
        "base_address": base_address,
        "profile_blocks": profile_blocks,
        "train_salt": TRAIN_SALT,
    }
