"""Serial vs parallel ``run_matrix`` equivalence.

The parallel path shards individual (arch, benchmark, width, layout)
cells across worker processes with fork-server image amortization;
every simulation is deterministic given its RunSpec, so the two paths
must produce *bit-identical* results — same counters, same engine
stats, same memory stats — not merely statistically similar.
"""

import dataclasses

from helpers import result_digest

import pytest

from repro.experiments.runner import RunSpec, run_matrix

BENCHES = ("gzip", "twolf")
KWARGS = dict(widths=(8,), instructions=12_000, warmup=4_000, scale=0.3)


@pytest.fixture(scope="module")
def serial_matrix():
    return run_matrix(BENCHES, **KWARGS)


@pytest.fixture(scope="module")
def parallel_matrix():
    return run_matrix(BENCHES, **KWARGS, jobs=2)


class TestParallelEquivalence:
    def test_same_specs(self, serial_matrix, parallel_matrix):
        assert set(serial_matrix.results) == set(parallel_matrix.results)
        assert len(serial_matrix.results) == 2 * 2 * 4  # bench x layout x arch

    def test_results_bit_identical(self, serial_matrix, parallel_matrix):
        for spec, serial in serial_matrix.results.items():
            parallel = parallel_matrix.results[spec]
            assert result_digest(serial) == result_digest(parallel), (
                f"serial/parallel divergence at {spec}"
            )

    def test_every_counter_field(self, serial_matrix, parallel_matrix):
        """Field-by-field check so a divergence names the counter."""
        spec = RunSpec("stream", "gzip", 8, True)
        serial = serial_matrix.results[spec]
        parallel = parallel_matrix.results[spec]
        for field in dataclasses.fields(serial):
            if not field.compare:
                continue  # extras: run diagnostics, warmth-dependent
            assert getattr(serial, field.name) == getattr(parallel, field.name), (
                f"field {field.name} differs between serial and parallel"
            )

    def test_result_ordering_matches(self, serial_matrix, parallel_matrix):
        """The parallel path inserts results in the serial order."""
        assert list(serial_matrix.results) == list(parallel_matrix.results)

    def test_progress_called_per_result(self):
        seen = []
        run_matrix(("gzip",), widths=(8,), instructions=5_000,
                   warmup=1_000, scale=0.3, jobs=2,
                   progress=lambda r: seen.append((r.benchmark, r.engine,
                                                   r.optimized)))
        assert len(seen) == 8  # 1 bench x 2 layouts x 4 archs
        assert len(set(seen)) == 8


class TestCellLevelSharding:
    """Cell-granularity work units: uneven matrices the old
    (benchmark, layout) group sharding could not balance."""

    UNEVEN = dict(benchmarks=("gzip",), widths=(2, 4, 8), layouts=(True,),
                  instructions=6_000, warmup=2_000, scale=0.3)

    def test_single_group_many_cells_bit_identical(self):
        """1 benchmark x 1 layout is a single group but 12 cells; the
        cell-sharded pool must still match the serial path exactly."""
        serial = run_matrix(**self.UNEVEN)
        parallel = run_matrix(**self.UNEVEN, jobs=3)
        assert list(serial.results) == list(parallel.results)
        assert len(serial.results) == 3 * 4  # widths x archs
        for spec, expect in serial.results.items():
            got = parallel.results[spec]
            assert result_digest(expect) == result_digest(got), (
                f"serial/parallel divergence at {spec}"
            )

    def test_more_jobs_than_cells(self):
        serial = run_matrix(("gzip",), widths=(8,), archs=("ev8",),
                            layouts=(True,), instructions=4_000,
                            warmup=1_000, scale=0.3)
        parallel = run_matrix(("gzip",), widths=(8,), archs=("ev8",),
                              layouts=(True,), instructions=4_000,
                              warmup=1_000, scale=0.3, jobs=16)
        spec = RunSpec("ev8", "gzip", 8, True)
        assert result_digest(serial.results[spec]) == \
            result_digest(parallel.results[spec])


class TestSelectIndexes:
    """RunMatrixResult.select filters ``results`` on the given axes, in
    insertion order."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return run_matrix(("gzip",), widths=(2, 8), instructions=4_000,
                          warmup=1_000, scale=0.3)

    def test_select_matches_brute_force(self, matrix):
        for kwargs in (
            dict(arch="stream"),
            dict(width=2),
            dict(optimized=True),
            dict(arch="ev8", width=8),
            dict(arch="trace", benchmark="gzip", width=2, optimized=False),
            dict(),
        ):
            expected = [
                r for spec, r in matrix.results.items()
                if all(getattr(spec, k) == v for k, v in kwargs.items())
            ]
            assert matrix.select(**kwargs) == expected

    def test_select_no_match(self, matrix):
        assert matrix.select(benchmark="nosuch") == []

    def test_select_after_direct_mutation(self, matrix):
        """Directly populated results select like a run's."""
        from repro.experiments.runner import RunMatrixResult
        clone = RunMatrixResult(instructions=1, scale=1.0)
        for spec, r in matrix.results.items():
            clone.results[spec] = r
        assert clone.select(arch="ftb") == matrix.select(arch="ftb")
