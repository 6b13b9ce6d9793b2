"""Accelerator failure handling: warn once, fall back, never differ.

Any failure to generate, compile or bind a kernel must (a) emit exactly
one RuntimeWarning per process, (b) leave the processor on the
interpreted path, and (c) leave results untouched.  Mode selection via
``engine_mode`` is covered here too.
"""

import warnings

import pytest

from helpers import result_digest

import repro.accel as accel
from repro.accel import codegen
from repro.experiments.configs import build_processor
from repro.isa.workloads import prepare_program, ref_trace_seed


@pytest.fixture(scope="module")
def gzip_tiny():
    return prepare_program("gzip", optimized=True, scale=0.3)


@pytest.fixture
def clean_accel_state():
    """Re-arm the warn-once flag and drop poisoned compile caches."""
    accel.reset_fallback_warning()
    codegen.clear_compile_cache()
    yield
    accel.reset_fallback_warning()
    codegen.clear_compile_cache()


def _run(program, mode=None, n=4000):
    processor = build_processor(
        "stream", program, 8, benchmark="gzip", optimized=True,
        trace_seed=ref_trace_seed("gzip"), engine_mode=mode,
    )
    return processor, processor.run(n, warmup=1000)


class TestForcedCodegenFailure:
    def test_single_warning_and_identical_results(
        self, gzip_tiny, clean_accel_state, monkeypatch
    ):
        _, reference = _run(gzip_tiny, mode="interp")

        def broken_render(*args, **kwargs):
            raise SyntaxError("injected codegen failure")

        # ``render`` is called inside codegen.compile_kernel, so this
        # breaks compilation for core and engine kernels alike without
        # having to chase the from-imported references.
        monkeypatch.setattr(codegen, "render", broken_render)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p1, r1 = _run(gzip_tiny, mode="accel")
            p2, r2 = _run(gzip_tiny, mode="accel")
        fallbacks = [w for w in caught
                     if "falling back to the interpreted engine"
                     in str(w.message)]
        assert len(fallbacks) == 1  # warn once per process, not per run
        assert issubclass(fallbacks[0].category, RuntimeWarning)
        # Both processors run (and publish) on the interpreted path.
        assert p1._accel_run is None and p2._accel_run is None
        assert result_digest(r1) == result_digest(reference)
        assert result_digest(r2) == result_digest(reference)

    def test_bad_generated_source_falls_back(
        self, gzip_tiny, clean_accel_state, monkeypatch
    ):
        from repro.accel import core_gen

        _, reference = _run(gzip_tiny, mode="interp")
        monkeypatch.setattr(core_gen, "_TEMPLATE",
                            "def make_run(:\n    syntax error\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            processor, result = _run(gzip_tiny, mode="accel")
        assert any("falling back" in str(w.message) for w in caught)
        assert processor._accel_run is None
        assert result_digest(result) == result_digest(reference)


class TestModeSelection:
    def test_explicit_interp_builds_no_kernel(self, gzip_tiny):
        processor, _ = _run(gzip_tiny, mode="interp")
        assert processor.engine_mode == "interp"
        assert processor._accel_run is None

    def test_default_is_accel(self, gzip_tiny):
        processor, _ = _run(gzip_tiny, mode=None)
        assert processor.engine_mode == "accel"
        assert processor._accel_run is not None

    def test_resolve_values(self):
        assert accel.resolve_engine_mode(None) == "accel"
        assert accel.resolve_engine_mode("accel") == "accel"
        assert accel.resolve_engine_mode("interp") == "interp"
        for bad in ("warp-speed", "auto", True, False):
            with pytest.raises(ValueError):
                accel.resolve_engine_mode(bad)


class TestUnknownEngineClass:
    def test_subclass_gets_interpreted_cycle(self, gzip_tiny):
        """A subclassed engine is not specialized (its overrides must
        keep working) but the core kernel still runs — and results
        match the fully interpreted path."""
        from repro.accel import engine_gen
        from repro.common.params import default_machine
        from repro.core.processor import Processor
        from repro.fetch.stream import StreamFetchEngine
        from repro.isa.trace import TraceWalker
        from repro.memory.hierarchy import MemoryHierarchy

        class TweakedStream(StreamFetchEngine):
            pass

        machine = default_machine(8)

        def build(mode):
            mem = MemoryHierarchy(machine.memory)
            engine = TweakedStream(gzip_tiny, machine, mem)
            walker = TraceWalker(gzip_tiny, ref_trace_seed("gzip"))
            return Processor(engine, walker, machine, mem,
                             benchmark="gzip", optimized=True,
                             engine_mode=mode)

        assert engine_gen.make_kernels(build("interp").engine) == (None,
                                                                   None)
        accel_p = build("accel")
        assert accel_p._accel_run is not None  # core kernel still binds
        interp_p = build("interp")
        assert result_digest(accel_p.run(3000)) == result_digest(
            interp_p.run(3000)
        )
