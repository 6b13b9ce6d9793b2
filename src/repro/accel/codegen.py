"""Shared code-generation machinery for :mod:`repro.accel`.

A *kernel* here is ordinary Python source text, emitted per
configuration with every config-level constant folded into the text as
a literal (pipe width, latencies, masks, decode bubbles), then
``compile()``/``exec()``'d once per distinct configuration.  The
compiled module object exposes a single ``make_*`` factory that binds
one simulated-machine instance (processor or fetch engine) into a
closure and returns the specialized hot-path callable — so compilation
cost is paid once per (engine, width, machine) shape while closure
binding is paid once per simulation, both negligible next to a run.

Generated sources are registered with :mod:`linecache` under a
synthetic ``<repro.accel:NAME>`` filename, so tracebacks raised inside
a kernel show the *generated* line — indispensable when debugging a
transliteration bug.  ``repro.accel.kernel_sources`` (and
``python -m repro.accel``) expose the same text for offline reading.
"""

from __future__ import annotations

import linecache
from string import Template
from typing import Callable, Dict, Tuple

from repro import obs

__all__ = [
    "CompiledKernel",
    "clear_compile_cache",
    "compile_kernel",
    "render",
    "splice",
]


class CompiledKernel:
    """One compiled kernel: its factory plus the source it came from."""

    __slots__ = ("name", "source", "factory")

    def __init__(self, name: str, source: str, factory: Callable) -> None:
        self.name = name
        self.source = source
        self.factory = factory


#: Compiled factories, keyed on (kernel name, config key).  The name
#: identifies the template (``run:ev8`` / ``cycle:stream`` / ...), the
#: config key carries every constant folded into the source, so two
#: machines that fold differently can never share a kernel.
_COMPILE_CACHE: Dict[Tuple[str, tuple], CompiledKernel] = {}


def clear_compile_cache() -> None:
    """Drop all compiled kernels (tests, codegen development)."""
    _COMPILE_CACHE.clear()


def render(template: str, consts: Dict[str, object]) -> str:
    """Substitute ``$NAME`` placeholders with literal constants.

    Values are rendered with ``repr`` so ints stay ints and bools fold
    to ``True``/``False`` — which CPython's compiler then constant-folds
    (``if False and ...`` branches cost one jump, ``$WIDTH``-sized
    comparisons become immediate loads).
    """
    return Template(template).substitute(
        {name: repr(value) for name, value in consts.items()}
    )


def splice(template: str, name: str, block: str) -> str:
    """Put ``block`` in place of every line that holds only ``$NAME``.

    Each copy takes the indentation of the line it replaces, so one
    shared code fragment can be spliced at several nesting depths; an
    empty ``block`` deletes those lines.
    """
    marker = "$" + name
    lines = []
    for line in template.splitlines(True):
        if line.strip() == marker:
            pad = line[:len(line) - len(line.lstrip())]
            lines.extend(pad + row if row.strip() else row
                         for row in block.splitlines(True))
        else:
            lines.append(line)
    return "".join(lines)


def compile_kernel(
    name: str,
    config_key: tuple,
    template: str,
    consts: Dict[str, object],
    namespace: Dict[str, object],
    factory_name: str,
) -> CompiledKernel:
    """Render, compile and exec one kernel; memoized per config key.

    ``namespace`` supplies the support objects the generated source
    refers to by name (classes, enum members, helper functions) — the
    generated text contains no import statements, so its dependency
    surface is exactly what the caller hands it.
    """
    cache_key = (name, config_key)
    kernel = _COMPILE_CACHE.get(cache_key)
    if kernel is not None:
        return kernel
    obs.ACCEL_KERNEL_COMPILES.inc()
    source = render(template, consts)
    filename = f"<repro.accel:{name}:{'-'.join(map(str, config_key))}>"
    # optimize=2 strips asserts (pure guards on the interpreted path —
    # the transliterations keep them for readability, the compiled
    # kernels drop them) and docstrings; it cannot change results.
    code = compile(source, filename, "exec", optimize=2)
    module_ns = dict(namespace)
    exec(code, module_ns)
    factory = module_ns[factory_name]
    # Register with linecache so tracebacks show generated lines.
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename,
    )
    kernel = _COMPILE_CACHE[cache_key] = CompiledKernel(name, source, factory)
    return kernel
