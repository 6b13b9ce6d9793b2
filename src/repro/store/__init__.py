"""Persistent artifact store + incremental runs.

The experiment matrix is a pure function of its inputs: every
(arch, benchmark, width, layout) cell is a deterministic simulation of
a deterministically generated program.  This package persists one
artifact class, the per-cell
:class:`~repro.core.results.SimulationResult`, as hash-verified files
on disk, keyed by fingerprints of *every input that can change the
result* plus a code-version salt.  Fig 8/9 and Table 3 all read one
result matrix, so a warm store turns repeated figure/table reproduction
into cache hits, and a stale store self-invalidates when the simulator
changes.  Linked program images and their trace records are not
stored: each process links what it needs, once, in memory.

Layout of a store rooted at ``<root>``::

    <root>/entries/<kind>/<fingerprint>   # JSON header line + payload
    <root>/runs/<sweep>.journal|.events   # sweep journals, recorders

The header holds the payload's SHA-256 (``oid``), its size and the
entry's meta, and every read re-hashes the payload.  Stores written by
older checkouts kept ``objects/`` and ``index/`` trees; nothing reads
them now (the code-version salt already made their keys stale), so
both directories can be deleted.  Writes are atomic (temp file +
``os.replace``), so concurrent readers and racing writers — two
sweeps, or a sweep and a serve daemon, on one store — are safe:
readers never observe a partial entry, and when two writers race on
one key, one complete write wins.  The store itself is
kind-agnostic: entries of other kinds (an older checkout wrote program
and trace entries) are still listed, verified, synced and evicted.
"""

from repro.store.cache import ArtifactCache, as_artifact_cache
from repro.store.fingerprint import (
    code_version,
    fingerprint,
    program_fingerprint,
    result_fingerprint,
)
from repro.store.pending import PendingCell, PendingRegistry
from repro.store.store import ArtifactStore

__all__ = [
    "ArtifactCache",
    "ArtifactStore",
    "PendingCell",
    "PendingRegistry",
    "as_artifact_cache",
    "code_version",
    "fingerprint",
    "program_fingerprint",
    "result_fingerprint",
]
