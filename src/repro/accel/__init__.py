"""``repro.accel`` — exec-compiled, config-specialized simulation kernels.

Per (engine, fetch width, machine parameters) configuration this
package emits specialized Python source for the simulator's hot paths —
the :class:`~repro.core.processor.Processor` cycle loop with the
:class:`~repro.core.backend.DataflowBackend` segment scheduler inlined
(:mod:`repro.accel.core_gen`) and each fetch engine's per-cycle
fragment hand-off (:mod:`repro.accel.engine_gen`) — and compiles it
into closure kernels with all config constants folded.  No external
toolchain: everything is stdlib ``compile()``/``exec()``.

Results are **bit-identical** to the interpreted paths in all modes —
the kernels are transliterations, and ``tests/accel/`` pins full-result
parity per engine and width — so artifact-store fingerprints do not
depend on the engine mode and warm caches stay valid either way.

Selection: ``engine_mode`` is ``"accel"`` (or None, the default) or
``"interp"``.  Any failure to generate, compile or bind a kernel warns
**once** per process and falls back to the interpreted path; it can
never change results or abort a run.

Debugging: :func:`kernel_sources` returns the generated text for a
given architecture, and ``python -m repro.accel ARCH [WIDTH]`` prints
it (see benchmarks/README.md, "Accelerator").
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import obs
from repro.accel.codegen import clear_compile_cache
from repro.common.warnonce import reset_warn_once, warn_once

__all__ = [
    "clear_compile_cache",
    "compiled_run",
    "kernel_sources",
    "reset_fallback_warning",
    "resolve_engine_mode",
]

def resolve_engine_mode(mode: Optional[str] = None) -> str:
    """Normalize an engine-mode request to ``"accel"`` or ``"interp"``.

    None and ``"accel"`` mean the accelerator; anything but those and
    ``"interp"`` raises :class:`ValueError`.
    """
    if mode is None or mode == "accel":
        return "accel"
    if mode == "interp":
        return "interp"
    raise ValueError(
        f"engine_mode must be 'accel', 'interp' or None, got {mode!r}"
    )


def reset_fallback_warning() -> None:
    """Re-arm the warn-once fallback notice (tests)."""
    reset_warn_once("accel.fallback")


def _warn_fallback(exc: BaseException) -> None:
    obs.ACCEL_FALLBACKS.inc()
    warn_once(
        "accel.fallback",
        f"repro.accel: kernel generation failed ({exc!r}); "
        "falling back to the interpreted engine (results are "
        "identical, only slower)",
        stacklevel=3,
    )


def compiled_run(processor) -> Optional[Callable]:
    """A bound run-kernel for ``processor``, or None on any failure.

    The returned callable has the signature
    ``run(max_instructions, warmup=0) -> SimulationResult`` and is a
    drop-in for the interpreted :meth:`Processor.run` hot path.  Any
    exception during codegen, compilation or binding warns once and
    returns None — the caller then uses the interpreted path.
    """
    try:
        from repro.accel import core_gen, engine_gen

        engine_cycle, engine_note_commit = engine_gen.make_kernels(
            processor.engine
        )
        return core_gen.make_run(processor, engine_cycle, engine_note_commit)
    except Exception as exc:  # noqa: BLE001 - fallback must never raise
        _warn_fallback(exc)
        return None


def kernel_sources(processor) -> dict:
    """Generated source texts for ``processor``'s configuration.

    Returns ``{"run": str, "cycle": str | None}`` — the specialized
    processor/scheduler kernel and the engine's cycle kernel (None when
    the engine class has no specialization).  For debugging; see
    ``python -m repro.accel``.
    """
    from repro.accel import core_gen, engine_gen

    return {
        "run": core_gen.run_kernel_source(processor),
        "cycle": engine_gen.cycle_kernel_source(processor.engine),
    }
