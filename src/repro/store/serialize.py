"""(De)serialization of store artifacts.

Every payload is a small ASCII header (store format + artifact
kind, so a corrupt or foreign file is rejected before any decoding)
followed by a zlib-compressed pickle of the artifact's value state.
The store holds one kind:

* **result** — the :class:`~repro.core.results.SimulationResult`
  dataclass, counters and stat dicts intact, so a cache hit is
  bit-identical to the simulation that produced it.

The **program** and **trace** codecs are no longer used by the store.
They stay, with the ``Program.__getstate__`` and
``TraceRecord.export_state`` / ``from_state`` they call, because the
benchmark in ``perfbench/`` wraps them by name and fails on a missing
one.  They go when its wrappers do.

Loaders raise :class:`ArtifactDecodeError` on *any* malformed input;
callers treat that as a cache miss and recompute — a damaged store can
cost time, never correctness.  (Objects are pickles: a store is a local
cache, not an interchange format — do not load stores you don't trust.)
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any

from repro.core.results import SimulationResult
from repro.isa.program import Program
from repro.isa.trace import TraceRecord
from repro.store.fingerprint import FORMAT_VERSION

#: Leading bytes of every payload; tracks FORMAT_VERSION
#: structurally so the two can never drift apart.
HEADER = f"repro-store:{FORMAT_VERSION}\n".encode("ascii")

_KINDS = ("program", "trace", "result")


class ArtifactDecodeError(Exception):
    """A payload could not be decoded as the expected artifact."""


def dumps(kind: str, payload: Any) -> bytes:
    """Encode one artifact as payload bytes."""
    if kind not in _KINDS:
        raise ValueError(f"unknown artifact kind {kind!r}")
    body = zlib.compress(pickle.dumps(payload, protocol=4), 6)
    return HEADER + kind.encode("ascii") + b"\n" + body


def loads(kind: str, data: bytes) -> Any:
    """Decode payload bytes, checking header and kind."""
    prefix = HEADER + kind.encode("ascii") + b"\n"
    if not data.startswith(prefix):
        raise ArtifactDecodeError(f"bad header for {kind} object")
    try:
        return pickle.loads(zlib.decompress(data[len(prefix):]))
    except Exception as exc:
        raise ArtifactDecodeError(f"undecodable {kind} object: {exc}") from exc


# ----------------------------------------------------------------------
# artifact-specific wrappers
# ----------------------------------------------------------------------

def dump_program(program: Program) -> bytes:
    """Encode a linked image.  Unused by the store; kept for perfbench.

    ``Program.__getstate__`` drops the transient caches (scan cache,
    memoized trace records); the deterministic per-block decode
    artifacts ride along, so a loaded image is immediately warm.
    """
    return dumps("program", program)


def load_program(data: bytes) -> Program:
    """Decode :func:`dump_program` bytes.  Kept for perfbench."""
    program = loads("program", data)
    if not isinstance(program, Program):
        raise ArtifactDecodeError(
            f"program object decoded to {type(program).__name__}"
        )
    return program


def dump_trace(record: TraceRecord) -> bytes:
    """Encode a trace record's replay state, without its program.

    Unused by the store; kept for perfbench.
    """
    return dumps("trace", record.export_state())


def load_trace(data: bytes, program: Program, seed: int) -> TraceRecord:
    """Rebind :func:`dump_trace` bytes to ``program``.  Kept for perfbench."""
    state = loads("trace", data)
    try:
        return TraceRecord.from_state(program, seed, state)
    except ArtifactDecodeError:
        raise
    except Exception as exc:
        raise ArtifactDecodeError(f"trace replay failed: {exc}") from exc


def dump_result(result: SimulationResult) -> bytes:
    if result.extras:
        # ``extras`` carries run diagnostics (scheduler segment counts)
        # that describe how a run executed, not what it measured;
        # dropping them keeps the encoded artifact — and its content
        # address — a function of the simulation outputs alone.
        import dataclasses

        result = dataclasses.replace(result, extras={})
    return dumps("result", result)


def load_result(data: bytes) -> SimulationResult:
    result = loads("result", data)
    if not isinstance(result, SimulationResult):
        raise ArtifactDecodeError(
            f"result object decoded to {type(result).__name__}"
        )
    return result
