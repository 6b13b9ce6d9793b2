"""``repro.exec`` — fault-tolerant sweep execution.

The job-pool subsystem ``run_matrix`` dispatches through: a pluggable
:class:`~repro.exec.pool.Pool` interface with a serial and a forked
backend, a per-cell :class:`~repro.exec.policy.FaultPolicy` (timeouts,
bounded retries with deterministic backoff, crash rebuilds, graceful
degradation), store-journaled sweep checkpoints for interrupt/resume
(:mod:`repro.exec.journal`), and a deterministic fault-injection
harness (:mod:`repro.exec.faults`) that the test suite's fault drills
(``pytest -m faults``) use to prove all of it keeps results
bit-identical.

See benchmarks/README.md ("Resilience") for the user-facing knobs.
"""

from __future__ import annotations

from repro.exec.faults import FAULTS_ENV, FaultSpec, TransientFault
from repro.exec.journal import SweepJournal, sweep_fingerprint
from repro.exec.policy import FaultPolicy, SweepError, backoff_delay
from repro.exec.pool import ForkServerPool, Job, Pool, SerialPool

__all__ = [
    "FAULTS_ENV",
    "FaultPolicy",
    "FaultSpec",
    "ForkServerPool",
    "Job",
    "Pool",
    "SerialPool",
    "SweepError",
    "SweepJournal",
    "TransientFault",
    "backoff_delay",
    "sweep_fingerprint",
]
