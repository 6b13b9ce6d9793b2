"""Codegen plumbing: kernel caching, source dumps, config keying."""

import pytest

from repro.accel import codegen, kernel_sources
from repro.accel.core_gen import run_kernel
from repro.accel.engine_gen import cycle_kernel, cycle_kernel_source
from repro.experiments.configs import ARCHITECTURES, build_processor
from repro.isa.workloads import prepare_program, ref_trace_seed


@pytest.fixture(scope="module")
def gzip_tiny():
    return prepare_program("gzip", optimized=True, scale=0.3)


def _processor(program, arch="ev8", width=8):
    return build_processor(
        arch, program, width, benchmark="gzip", optimized=True,
        trace_seed=ref_trace_seed("gzip"), engine_mode="interp",
    )


def test_compile_cache_shared_per_config(gzip_tiny):
    a = run_kernel(_processor(gzip_tiny))
    b = run_kernel(_processor(gzip_tiny))
    assert a is b  # one compilation per configuration
    narrow = run_kernel(_processor(gzip_tiny, width=2))
    assert narrow is not a  # different width folds different literals
    assert "$WIDTH" not in a.source  # constants were substituted


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_engine_kernels_compile_per_arch(gzip_tiny, arch):
    processor = _processor(gzip_tiny, arch=arch)
    kernel = cycle_kernel(processor.engine)
    assert kernel is not None
    source = cycle_kernel_source(processor.engine)
    compile(source, "<check>", "exec")  # stays valid stand-alone python


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_kernel_sources_dump(gzip_tiny, arch):
    """The debug dump returns the exact compilable source texts."""
    processor = _processor(gzip_tiny, arch=arch)
    sources = kernel_sources(processor)
    assert set(sources) == {"run", "cycle"}
    compile(sources["run"], "<run>", "exec")
    compile(sources["cycle"], "<cycle>", "exec")
    assert "def make_run" in sources["run"]
    assert "def make_kernels" in sources["cycle"]
    # Config constants are folded as literals, not looked up.
    assert "$" not in sources["run"]


def test_dump_cli_prints_source(gzip_tiny, capsys):
    from repro.accel.__main__ import main

    assert main(["stream", "8", "--which", "cycle"]) == 0
    out = capsys.readouterr().out
    assert "cycle kernel: stream width=8" in out
    assert "def make_kernels" in out


def test_clear_compile_cache(gzip_tiny):
    first = run_kernel(_processor(gzip_tiny))
    codegen.clear_compile_cache()
    second = run_kernel(_processor(gzip_tiny))
    assert first is not second
    assert first.source == second.source
