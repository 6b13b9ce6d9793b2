"""Domain-level artifact cache: per-cell simulation results.

:class:`ArtifactCache` is the layer ``run_matrix``, the serve daemon
and the CLI talk to.  It stores one artifact class, the per-cell
:class:`~repro.core.results.SimulationResult`: Fig 8/9 and Table 3 all
read one result matrix, so a ``fig9`` or ``table3`` after a ``fig8`` is
all store hits.  Linked program images and their trace records are
never stored; they live in the in-process image cache of
:mod:`repro.experiments.runner`, which shares each image across every
fetch engine and width of a run.

The cache counts hits and misses and enforces the safety rule of the
whole subsystem: **a store can only ever be a shortcut**.  A result
that fails to load or verify is a miss and is recomputed, so a corrupt
or stale store costs time, never changes a result.

``prepare_program``, ``program_fingerprint`` and ``trace_fingerprint``
are imported here but unused: the benchmark in ``perfbench/`` wraps
them under this module's name, and fails on a missing one.  They go
when its wrappers do.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Optional, Union

from repro import obs
from repro.core.results import SimulationResult
from repro.isa.workloads import prepare_program  # noqa: F401
from repro.store import serialize
from repro.store.fingerprint import program_fingerprint  # noqa: F401
from repro.store.fingerprint import trace_fingerprint  # noqa: F401
from repro.store.serialize import ArtifactDecodeError
from repro.store.store import ArtifactStore


class ArtifactCache:
    """Load-or-recompute access to the store's per-cell results."""

    def __init__(self, store: Union[ArtifactStore, str]) -> None:
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        #: Per-kind hit/miss counters (this process's accesses only).
        self.hits: Dict[str, int] = {"result": 0}
        self.misses: Dict[str, int] = {"result": 0}
        self._write_failure_warned = False

    def _put(
        self,
        fp: str,
        encode: Callable[[], bytes],
        meta: Optional[dict],
    ) -> None:
        """Encode and store one result, degrading on failure.

        The subsystem's contract is that a store can only ever cost
        time: neither an unwritable store (full disk, read-only
        volume) nor an unencodable result (an unpicklable attribute
        a future change introduces, a non-JSON meta value) may abort a
        run whose simulations already succeeded.  ``encode`` runs
        inside the guard for exactly that reason; failures are
        reported once and swallowed.
        """
        try:
            self.store.put("result", fp, encode(), meta=meta)
        except Exception as exc:
            # Deliberately broad: pickling surfaces arbitrary exception
            # types (AttributeError for local objects, TypeError,
            # PicklingError, ...), and any of them aborting a completed
            # simulation would break the contract above.  The warning
            # keeps genuine bugs visible.
            obs.STORE_WRITE_FAILURES.inc()
            obs.record_event(
                "store_write_failure", kind="result", fp=fp, error=str(exc),
            )
            if not self._write_failure_warned:
                self._write_failure_warned = True
                print(
                    f"warning: artifact store {self.store.root} could not "
                    f"store a result ({exc}); results are unaffected but "
                    f"will not be cached", file=sys.stderr,
                )

    def result(self, result_fp: str) -> Optional[SimulationResult]:
        """The cached result for a cell fingerprint, or None."""
        data = self.store.get("result", result_fp)
        if data is not None:
            try:
                result = serialize.load_result(data)
            except ArtifactDecodeError:
                result = None
            if result is not None:
                self.hits["result"] += 1
                obs.STORE_HITS.inc(kind="result")
                return result
        self.misses["result"] += 1
        obs.STORE_MISSES.inc(kind="result")
        return None

    def put_result(
        self,
        result_fp: str,
        result: SimulationResult,
        meta: Optional[dict] = None,
    ) -> None:
        self._put(result_fp, lambda: serialize.dump_result(result), meta)

    def put_result_bytes(
        self,
        result_fp: str,
        data: bytes,
        meta: Optional[dict] = None,
    ) -> Optional[SimulationResult]:
        """Ingest an already-encoded result (the remote-cell path).

        A serve daemon ships results in the store's own payload
        encoding, so a cluster sweep can persist the *wire bytes*
        verbatim — the local store entry is then bit-identical to the
        one the daemon wrote, with no decode/re-encode round trip in
        between.  The bytes are validated by decoding first; bytes a
        different code version produced (undecodable here) are
        rejected — stored, they would poison every later run's cache —
        and the caller falls back to re-encoding its decoded result.
        Returns the decoded result on success, None on rejection.
        """
        try:
            result = serialize.load_result(data)
        except ArtifactDecodeError:
            return None
        self._put(result_fp, lambda: data, meta)
        return result


def as_artifact_cache(
    store: Union[ArtifactCache, ArtifactStore, str]
) -> ArtifactCache:
    """Coerce a path / store / cache into an :class:`ArtifactCache`."""
    if isinstance(store, ArtifactCache):
        return store
    return ArtifactCache(store)
