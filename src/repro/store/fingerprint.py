"""Deterministic fingerprints of everything that can change a result.

A fingerprint is the SHA-256 of a canonical JSON encoding of

* the artifact *kind* (``program`` / ``trace`` / ``result``),
* the complete input payload — workload spec + scale + seed, layout
  choice, trace seed, machine parameters, instruction budget — reduced
  to plain data via :func:`canonical`,
* the store format version, and
* a **code-version salt**: a hash over every ``repro`` source file.

The salt is what makes stale caches self-invalidate: any edit to the
simulator (a predictor tweak, a workload knob, a scheduling change)
changes the salt, every old fingerprint stops resolving, and the next
run repopulates the store from scratch.  That is deliberately
conservative — a comment-only edit also invalidates — because the
alternative (hand-maintained version numbers) fails silently in exactly
the cases that matter.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro.common.canonical import canonical

__all__ = [
    "FORMAT_VERSION",
    "canonical",
    "code_version",
    "fingerprint",
    "program_fingerprint",
    "result_fingerprint",
    "trace_fingerprint",
]

#: Bump when the on-disk object encoding changes incompatibly.
FORMAT_VERSION = 1

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro/**/*.py`` source file (memoized per process).

    Deterministic across processes on one tree: files are visited in
    sorted relative-path order and hashed with their paths, so renames
    count as changes too.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        # ``repro`` is a namespace package (no __init__.py, no
        # __file__), and its __path__ may list several directories.
        # Collect sources across *all* of them, first-entry-wins per
        # relative path — exactly the file Python would import — so an
        # edit to any importable module changes the salt.
        sources: dict = {}
        for entry in repro.__path__:
            root = os.path.abspath(entry)
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for name in filenames:
                    if name.endswith(".py"):
                        path = os.path.join(dirpath, name)
                        sources.setdefault(
                            os.path.relpath(path, root), path
                        )
        digest = hashlib.sha256()
        for relpath in sorted(sources):
            digest.update(relpath.encode("utf-8"))
            digest.update(b"\0")
            with open(sources[relpath], "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


def fingerprint(kind: str, payload: Any) -> str:
    """The fingerprint (hex SHA-256) of one artifact key."""
    envelope = {
        "format": FORMAT_VERSION,
        "code": code_version(),
        "kind": kind,
        "payload": canonical(payload),
    }
    blob = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def program_fingerprint(
    benchmark: str,
    optimized: bool,
    scale: float = 1.0,
    base_address: Optional[int] = None,
    profile_blocks: Optional[int] = None,
) -> str:
    """Fingerprint of one linked program image.

    Covers every input :func:`repro.isa.workloads.prepare_program`
    consumes — the full :class:`~repro.isa.workloads.WorkloadSpec`
    (with its generator seed and ILP profile), the footprint scale, the
    layout choice, the train-profile salt and the base address — so two
    distinct specs can never alias even if they share a benchmark name.
    """
    from repro.isa.workloads import (
        DEFAULT_BASE_ADDRESS,
        program_fingerprint_inputs,
    )

    if base_address is None:
        base_address = DEFAULT_BASE_ADDRESS
    return fingerprint(
        "program",
        program_fingerprint_inputs(
            benchmark, optimized, scale=scale, base_address=base_address,
            profile_blocks=profile_blocks,
        ),
    )


def trace_fingerprint(program_fp: str, seed: int) -> str:
    """Fingerprint of one dynamic trace: (program image, walk seed).

    No stored artifact uses it; kept because perfbench wraps it by name.
    """
    return fingerprint("trace", {"program": program_fp, "seed": seed})


def result_fingerprint(
    program_fp: str,
    arch: str,
    width: int,
    instructions: int,
    warmup: int,
    trace_seed: int,
    machine: Optional[Dict[str, Any]] = None,
) -> str:
    """Fingerprint of one simulated matrix cell.

    ``machine`` is the plain-data payload of the
    :class:`~repro.common.params.MachineParams` actually simulated (see
    :meth:`MachineParams.key_payload`); passing it explicitly means a
    parameter sweep that alters latencies or cache geometry produces
    distinct fingerprints even at one pipe width.
    """
    if machine is None:
        from repro.common.params import default_machine

        machine = default_machine(width).key_payload()
    return fingerprint(
        "result",
        {
            "program": program_fp,
            "arch": arch,
            "width": width,
            "instructions": instructions,
            "warmup": warmup,
            "trace_seed": trace_seed,
            "machine": machine,
        },
    )
