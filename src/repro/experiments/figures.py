"""Regeneration of the paper's figures from simulation matrices.

* **Figure 8** (a/b/c): harmonic-mean IPC over the SPECint suite for the
  four fetch architectures at pipe widths 2, 4 and 8, baseline and
  optimized layouts.
* **Figure 9**: per-benchmark IPC for the 8-wide processor with
  optimized code layouts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.common.stats import harmonic_mean
from repro.experiments.configs import ARCH_LABELS, ARCHITECTURES
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunMatrixResult


def figure8_data(
    matrix: RunMatrixResult,
    benchmarks: Sequence[str],
    widths: Sequence[int] = (2, 4, 8),
) -> Dict[int, Dict[str, Dict[bool, float]]]:
    """IPC harmonic means: width -> arch -> {False: base, True: opt}."""
    data: Dict[int, Dict[str, Dict[bool, float]]] = {}
    for width in widths:
        data[width] = {}
        for arch in ARCHITECTURES:
            per_layout = {}
            for optimized in (False, True):
                ipcs = [
                    matrix.get(arch, b, width, optimized).ipc
                    for b in benchmarks
                ]
                per_layout[optimized] = harmonic_mean(ipcs)
            data[width][arch] = per_layout
    return data


def figure8_text(
    matrix: RunMatrixResult,
    benchmarks: Sequence[str],
    widths: Sequence[int] = (2, 4, 8),
) -> str:
    """Render Figure 8 as one table per pipeline width."""
    data = figure8_data(matrix, benchmarks, widths)
    sections: List[str] = []
    for width in widths:
        rows = []
        for arch in ARCHITECTURES:
            base = data[width][arch][False]
            opt = data[width][arch][True]
            rows.append(
                [ARCH_LABELS[arch], base, opt, opt / base]
            )
        sections.append(
            format_table(
                ["fetch engine", "IPC (base)", "IPC (optimized)", "opt/base"],
                rows,
                title=f"Figure 8: {width}-wide processor (hmean of "
                      f"{len(benchmarks)} benchmarks)",
            )
        )
    return "\n\n".join(sections)


def figure9_data(
    matrix: RunMatrixResult, benchmarks: Sequence[str], width: int = 8
) -> Dict[str, Dict[str, float]]:
    """Per-benchmark IPC (optimized layout): benchmark -> arch -> IPC."""
    out: Dict[str, Dict[str, float]] = {}
    for benchmark in benchmarks:
        out[benchmark] = {
            arch: matrix.get(arch, benchmark, width, True).ipc
            for arch in ARCHITECTURES
        }
    out["hmean"] = {
        arch: harmonic_mean([out[b][arch] for b in benchmarks])
        for arch in ARCHITECTURES
    }
    return out


def figure9_text(
    matrix: RunMatrixResult, benchmarks: Sequence[str], width: int = 8
) -> str:
    data = figure9_data(matrix, benchmarks, width)
    rows = []
    order = ["hmean"] + list(benchmarks)
    for benchmark in order:
        per_arch = data[benchmark]
        best = max(per_arch, key=per_arch.get)
        rows.append(
            [benchmark]
            + [per_arch[a] for a in ARCHITECTURES]
            + [ARCH_LABELS[best]]
        )
    return format_table(
        ["benchmark"] + [ARCH_LABELS[a] for a in ARCHITECTURES] + ["best"],
        rows,
        title=f"Figure 9: per-benchmark IPC, {width}-wide, optimized layout",
    )
