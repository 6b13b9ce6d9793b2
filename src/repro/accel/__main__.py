"""Dump generated kernel source: ``python -m repro.accel ARCH [WIDTH]``.

Prints the specialized run-kernel (processor cycle loop + inlined
segment scheduler) and the engine's cycle kernel for one architecture,
exactly as they are compiled at runtime — the first stop when a kernel
misbehaves or a transliteration needs review.
"""

from __future__ import annotations

import argparse

from repro.experiments.configs import ARCHITECTURES, build_processor
from repro.isa.workloads import prepare_program, ref_trace_seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.accel",
        description="print the generated accelerator kernel source",
    )
    parser.add_argument("arch", choices=ARCHITECTURES)
    parser.add_argument("width", nargs="?", type=int, default=8,
                        choices=(2, 4, 8))
    parser.add_argument("--which", choices=("run", "cycle", "both"),
                        default="both",
                        help="which kernel to print (default: both)")
    args = parser.parse_args(argv)

    from repro import accel

    # A tiny image is enough: kernels depend only on the configuration.
    program = prepare_program("gzip", optimized=True, scale=0.1)
    processor = build_processor(
        args.arch, program, args.width,
        benchmark="gzip", optimized=True,
        trace_seed=ref_trace_seed("gzip"),
        engine_mode="interp",  # do not build/bind kernels twice
    )
    sources = accel.kernel_sources(processor)
    if args.which in ("run", "both"):
        print(f"# ---- run kernel: {args.arch} width={args.width} ----")
        print(sources["run"])
    if args.which in ("cycle", "both"):
        print(f"# ---- cycle kernel: {args.arch} width={args.width} ----")
        print(sources["cycle"] or "# (no engine specialization)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
