"""A crash-tolerant experiment service over the artifact store.

``python -m repro.serve --store DIR --port N`` runs a long-lived daemon
that answers experiment-matrix queries over a line-delimited-JSON
socket protocol, turning the per-run machinery this repo already has
into a resident service:

* **admission + coalescing** — requests decompose into per-cell result
  fingerprints, warm cells answer straight from the store, and
  concurrent identical cold requests collapse onto one in-flight
  simulation per cell (:mod:`repro.serve.scheduler`);
* **backpressure + deadlines** — a bounded cold-cell backlog rejects
  excess load with a typed ``overloaded`` error, and per-request
  deadlines return partial results instead of blocking forever;
* **degradation + restart** — worker pools crash, get rebuilt with
  backoff, and eventually pin to serial execution; every finished cell
  is stored and journaled before any client sees it, so a SIGKILLed
  daemon restarts and re-simulates only what is missing.

:class:`ServeClient` is the one client of the protocol: the matrix
and control ops, and the federated-store ops
(:mod:`repro.store.remote`) with their typed errors, all rooted at
:class:`ServeError`.

The fault drills in ``tests/serve/test_daemon.py`` (``pytest -m
faults``) drive those claims end to end against real daemon
subprocesses under injected faults.
"""

from repro.serve.client import (
    ServeClient,
    ServeDraining,
    ServeError,
    ServeOverloaded,
    ServeUnavailable,
    StoreIntegrityError,
    StorePeerUnusable,
    StoreVersionSkew,
    parse_address,
)
from repro.serve.protocol import MatrixQuery, ProtocolError
from repro.serve.scheduler import (
    Draining,
    ExperimentScheduler,
    MatrixTicket,
    Overloaded,
)
from repro.serve.server import ExperimentServer

__all__ = [
    "Draining",
    "ExperimentScheduler",
    "ExperimentServer",
    "MatrixQuery",
    "MatrixTicket",
    "Overloaded",
    "ProtocolError",
    "ServeClient",
    "ServeDraining",
    "ServeError",
    "ServeOverloaded",
    "ServeUnavailable",
    "StoreIntegrityError",
    "StorePeerUnusable",
    "StoreVersionSkew",
    "parse_address",
]
