"""Accelerator bit-identity: accel vs interp across the whole matrix.

The accelerator may only change *speed*.  These tests pin full
:class:`SimulationResult` equality — counters, engine stats, memory
stats — between the exec-compiled kernels and the interpreted paths for
every engine and width, through ``run_matrix`` (serial and pooled), and
through the artifact store (fingerprints must not depend on the mode,
so a store warmed by one mode must serve the other), over randomized
machine shapes and workloads, and through issue-table compaction.
"""

import dataclasses
import random

import pytest

from helpers import result_digest

from repro.common.params import CacheParams, default_machine
from repro.experiments.configs import ARCHITECTURES, build_processor
from repro.experiments.runner import RunSpec, reset_program_cache, run_matrix
from repro.isa.layout import natural_order
from repro.isa.program import link
from repro.isa.workloads import (
    SPEC_BENCHMARKS, _WorkloadBuilder, benchmark_spec, prepare_program,
    ref_trace_seed,
)
from repro.store.store import ArtifactStore

N_INSTR = 6000
WARMUP = 1500


def _build(program, arch, width, mode, machine=None):
    return build_processor(
        arch, program, width,
        benchmark="gzip", optimized=True,
        trace_seed=ref_trace_seed("gzip"),
        machine=machine, engine_mode=mode,
    )


def _run(program, arch, width, mode, n=N_INSTR, warmup=WARMUP,
         machine=None):
    return _build(program, arch, width, mode, machine=machine).run(
        n, warmup=warmup
    )


@pytest.fixture(scope="module")
def gzip_small():
    return prepare_program("gzip", optimized=True, scale=0.35)


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("width", [2, 4, 8])
def test_engine_width_parity(gzip_small, arch, width):
    accel = _run(gzip_small, arch, width, "accel")
    interp = _run(gzip_small, arch, width, "interp")
    assert result_digest(accel) == result_digest(interp)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backend_state_parity(gzip_small, arch):
    """The published backend/walker/cursor state matches too, not just
    the result dataclass — inspection after a run must not depend on
    the mode."""
    states = []
    for mode in ("accel", "interp"):
        processor = build_processor(
            arch, gzip_small, 8, benchmark="gzip", optimized=True,
            trace_seed=ref_trace_seed("gzip"), engine_mode=mode,
        )
        result = processor.run(2500)
        states.append((result_digest(result), _published_state(processor)))
    assert states[0] == states[1]


def _published_state(processor):
    """Backend, cache, walker and cursor state after a run."""
    backend = processor.backend
    dl1 = processor.mem.dl1
    walker = processor.cursor._walker
    # Every load and store is one L1D access, and indexes the stream.
    assert backend.load_accesses + backend.store_accesses == dl1.accesses
    return (
        backend.instructions, backend.last_commit_cycle,
        backend.load_accesses, backend.store_accesses,
        dl1.accesses, dl1.misses, dl1.evictions,
        processor.mem.l2.accesses, processor.mem.l2.misses,
        processor.mem.l2.evictions,
        walker.blocks_walked, walker.instructions_walked,
        processor.cursor.offset, processor.cursor.dyn.addr,
    )


@pytest.mark.parametrize("arch", ["ev8", "stream"])
def test_resumed_run_parity(gzip_small, arch):
    """A processor that runs again continues its trace, and its data
    stream, where it stopped: 2,000 then 3,000 more instructions
    publish the same state in both modes."""
    states = []
    for mode in ("accel", "interp"):
        processor = _build(gzip_small, arch, 8, mode)
        first = processor.run(2000)
        mid = _published_state(processor)
        second = processor.run(3000)
        states.append((result_digest(first), mid, result_digest(second),
                       _published_state(processor)))
    assert states[0] == states[1]
    assert states[0][3][0] >= 5000  # both runs dispatched


def _random_machine(rng, width):
    """A legal random variation of the Table 2 machine.

    Varies what the segment scheduler is sensitive to: dispatch gaps
    (core depths), commit pressure (ROB size), and D-side latencies and
    miss mix (cache sizes and latencies), which drive the probe levels
    and the completion times later slots wait on.
    """
    base = default_machine(width)
    core = dataclasses.replace(
        base.core,
        dispatch_depth=rng.choice((4, 8, 12)),
        decode_depth=rng.choice((2, 3, 5)),
        rob_size=rng.choice((8, 16, 24)) * width,
        ftq_entries=rng.choice((2, 4, 8)),
    )
    memory = dataclasses.replace(
        base.memory,
        dl1=CacheParams(
            size_bytes=rng.choice((16, 64)) * 1024, assoc=2, line_bytes=64,
        ),
        l2_latency=rng.choice((9, 15, 21)),
        memory_latency=rng.choice((60, 100, 140)),
    )
    return dataclasses.replace(base, core=core, memory=memory)


@pytest.mark.parametrize("width", [2, 4, 8])
@pytest.mark.parametrize("seed", [11, 23])
def test_randomized_machine_parity(gzip_small, width, seed):
    rng = random.Random(1000 * width + seed)
    machine = _random_machine(rng, width)
    arch = rng.choice(ARCHITECTURES)
    digests = {
        mode: result_digest(_run(gzip_small, arch, width, mode, n=5000,
                                 warmup=1000, machine=machine))
        for mode in ("accel", "interp")
    }
    assert digests["accel"] == digests["interp"]


def _random_program(rng):
    """Link a random variation of a registered workload spec.

    Varies the generator seed, the construct mix and the block-size
    distribution: the shapes of the segments the scheduler sees and of
    the control flow the engines predict.
    """
    spec = dataclasses.replace(
        benchmark_spec(rng.choice(SPEC_BENCHMARKS)),
        seed=rng.randrange(1 << 16),
        block_size_mean=rng.uniform(3.0, 9.0),
        block_size_sd=rng.uniform(1.0, 4.0),
        w_straight=rng.uniform(0.5, 3.0),
        w_loop=rng.uniform(0.5, 3.0),
        w_hammock=rng.uniform(0.5, 3.0),
        w_ifthen=rng.uniform(0.5, 3.0),
        w_switch=rng.uniform(0.0, 1.5),
        w_call=rng.uniform(0.2, 2.0),
    )
    cfg = _WorkloadBuilder(spec).build()
    return link(cfg, natural_order(cfg), seed=spec.seed)


@pytest.mark.parametrize("seed", range(6))
def test_randomized_workload_differential(seed):
    """Random workloads agree across modes and keep the run identities.

    Per run: every correct-path instruction fetched is scheduled, the
    wrong-path share of fetch is a fraction, and the scheduled stream
    is exactly the trace walked up to the cursor.
    """
    rng = random.Random(seed)
    program = _random_program(rng)
    arch = ARCHITECTURES[seed % len(ARCHITECTURES)]  # every engine runs
    width = rng.choice((2, 4, 8))
    trace_seed = rng.randrange(1 << 16)
    runs = {}
    for mode in ("accel", "interp"):
        processor = build_processor(arch, program, width,
                                    trace_seed=trace_seed, engine_mode=mode)
        result = processor.run(5000, warmup=1000)
        cursor = processor.cursor
        assert result.fetched_instructions == result.instructions, mode
        assert 0 <= result.wrong_path_fraction <= 1, mode
        unscheduled = cursor.dyn.size - cursor.offset
        assert (cursor._walker.instructions_walked - unscheduled
                == processor.backend.instructions), mode
        runs[mode] = (result_digest(result), result.extras["segments"])
    assert runs["accel"] == runs["interp"]


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_compaction_parity(gzip_small, arch):
    """Both modes agree through issue-table compaction.

    Compaction (forget old occupancy entries, advance the issue floor)
    is the one branch of the per-slot loop that rewrites the table; a
    width-2 run of this length reaches it in every engine.
    """
    states = {}
    for mode in ("accel", "interp"):
        processor = _build(gzip_small, arch, 2, mode)
        digest = result_digest(processor.run(8000, warmup=1000))
        backend = processor.backend
        assert backend._issue_floor > 0, mode
        states[mode] = (digest, backend._issue_floor, backend._iu)
    assert states["accel"] == states["interp"]


def test_over_full_table_parity(gzip_small):
    """Both modes agree while the issue table stays over-full.

    Occupancy seeded far in the future keeps the table past
    ``_IU_LIMIT``, so every insert compacts; with a 600-cycle memory a
    slot that waits on a miss raises the floor past the dispatch cycle
    of the later slots of its segment, which must then start their
    issue search at the new floor.
    """
    base = default_machine(2)
    machine = dataclasses.replace(base, memory=dataclasses.replace(
        base.memory, memory_latency=600))
    states = {}
    for mode in ("accel", "interp"):
        processor = _build(gzip_small, "ev8", 2, mode, machine=machine)
        processor.backend._iu = {1_000_000 + c: 2 for c in range(4096)}
        digest = result_digest(processor.run(1500))
        backend = processor.backend
        assert backend._issue_floor > 0, mode
        states[mode] = (digest, backend._issue_floor, backend._iu)
    assert states["accel"] == states["interp"]


class TestExtras:
    def test_extras_report_segments(self, gzip_small):
        x = _run(gzip_small, "ftb", 8, "accel", n=4000, warmup=1000).extras
        assert set(x) == {"segments"}
        assert x["segments"] > 0

    def test_extras_never_break_equality(self, gzip_small):
        a = _run(gzip_small, "ftb", 8, "accel", n=3000, warmup=1000)
        b = _run(gzip_small, "ftb", 8, "interp", n=3000, warmup=1000)
        assert a == b  # dataclass equality excludes extras
        assert a.extras == b.extras  # both modes count the same segments

    def test_extras_stripped_from_stored_artifacts(self, gzip_small):
        from repro.store import serialize

        result = _run(gzip_small, "ftb", 8, "accel", n=3000, warmup=1000)
        assert result.extras
        decoded = serialize.load_result(serialize.dump_result(result))
        assert decoded.extras == {}
        assert result_digest(decoded) == result_digest(result)


def test_nondefault_machine_parity(gzip_small):
    """Ablation-style machines (odd line widths, deeper FTQs) compile
    their own kernels; parity must hold there too."""
    from dataclasses import replace

    base = default_machine(4)
    memory = replace(
        base.memory,
        il1=CacheParams(size_bytes=32 * 1024, assoc=2, line_bytes=64),
    )
    machine = replace(
        base,
        core=replace(base.core, ftq_entries=8),
        memory=memory,
    )
    results = {}
    for mode in ("accel", "interp"):
        processor = build_processor(
            "stream", gzip_small, 4, benchmark="gzip", optimized=True,
            trace_seed=ref_trace_seed("gzip"), machine=machine,
            engine_mode=mode,
        )
        results[mode] = result_digest(processor.run(4000, warmup=1000))
    assert results["accel"] == results["interp"]


def test_partial_matching_kernel_parity():
    """The trace engine's partial-matching branch is a distinct kernel
    variant ($PARTIAL_MATCHING folds True); pin it on a workload that
    actually produces partial hits."""
    program = prepare_program("vpr", optimized=False, scale=0.6)
    results = {}
    for mode in ("accel", "interp"):
        processor = build_processor(
            "trace", program, 8, benchmark="vpr", optimized=False,
            trace_seed=ref_trace_seed("vpr"),
            partial_matching=True, engine_mode=mode,
        )
        results[mode] = result_digest(processor.run(30_000))
    assert results["accel"] == results["interp"]
    # The branch must actually have been exercised, or this test pins
    # nothing: fail loudly if the workload stops producing partial hits.
    assert results["accel"]["engine_stats"].get("tc_partial_hits", 0) > 0


def test_nondefault_predictor_config_parity(gzip_small):
    """Engine-config knobs that fold into kernel constants (stream
    length-keyed path hashing) and ones that stay runtime (table
    geometry) both preserve parity."""
    from dataclasses import replace

    from repro.fetch.stream_predictor import StreamPredictorConfig

    config = replace(
        StreamPredictorConfig(),
        path_key_includes_length=True,
        first_entries=2048,
        second_entries=4096, second_assoc=4,
    )
    results = {}
    for mode in ("accel", "interp"):
        processor = build_processor(
            "stream", gzip_small, 8, benchmark="gzip", optimized=True,
            trace_seed=ref_trace_seed("gzip"),
            predictor_config=config, engine_mode=mode,
        )
        results[mode] = result_digest(processor.run(6000, warmup=1500))
    assert results["accel"] == results["interp"]


def _matrix_digest(result):
    return {
        spec: result_digest(res) for spec, res in result.results.items()
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_matrix_parity(jobs):
    kwargs = dict(
        benchmarks=["gzip"], widths=(2, 8), instructions=4000,
        scale=0.35,
    )
    accel = run_matrix(jobs=jobs, engine_mode="accel", **kwargs)
    interp = run_matrix(jobs=jobs, engine_mode="interp", **kwargs)
    assert _matrix_digest(accel) == _matrix_digest(interp)
    assert list(accel.results) == [
        RunSpec(arch, "gzip", width, optimized)
        for optimized in (False, True)
        for width in (2, 8)
        for arch in ARCHITECTURES
    ]


class TestStoreFingerprints:
    """Accel must never invalidate or fork the artifact cache."""

    KW = dict(benchmarks=["gzip"], widths=(8,), instructions=3000,
              scale=0.35)

    def test_modes_share_one_warm_store(self, tmp_path):
        """A store warmed by interp serves accel entirely from cache
        (same fingerprints), and the results are identical."""
        root = tmp_path / "store"
        reset_program_cache()
        cold = run_matrix(store=str(root), engine_mode="interp", **self.KW)
        results_before = ArtifactStore(str(root)).stats()["kinds"]["result"]
        progressed = []
        warm = run_matrix(store=str(root), engine_mode="accel",
                          progress=progressed.append, **self.KW)
        stats_after = ArtifactStore(str(root)).stats()["kinds"]["result"]
        assert _matrix_digest(cold) == _matrix_digest(warm)
        assert len(progressed) == len(cold.results)
        # Every accel cell resolved in the interp-warmed store: no new
        # result entries were written (fingerprints are mode-neutral).
        assert stats_after["entries"] == results_before["entries"]

    def test_fresh_stores_get_identical_fingerprints(self, tmp_path):
        fingerprints = {}
        for mode in ("accel", "interp"):
            root = tmp_path / mode
            reset_program_cache()
            run_matrix(store=str(root), engine_mode=mode, **self.KW)
            store = ArtifactStore(str(root))
            fingerprints[mode] = sorted(
                fp for kind, fp, _entry in store.iter_index()
                if kind == "result")
        assert fingerprints["accel"] == fingerprints["interp"]
        assert fingerprints["accel"]  # something was actually stored
