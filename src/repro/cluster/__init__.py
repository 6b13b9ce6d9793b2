"""`repro.cluster` — partition-tolerant multi-node sweep execution.

A :class:`ClusterPool` implements the :class:`repro.exec.pool.Pool`
contract over a fleet of ``repro.serve`` daemons: sweep cells travel
as one-cell matrix requests on the serve wire protocol and come back
in the store's canonical result encoding, so a cluster sweep is
bit-identical to a local ``run_matrix`` by construction — the only
things a flaky network can cost are time and warnings.

The moving parts:

* :class:`~repro.cluster.health.NodeHealth` — per-node state machine
  (healthy → suspect → dead, probation-based recovery) with a
  deterministic-jitter circuit breaker.
* :class:`~repro.cluster.pool.ClusterPool` — dispatch, redispatch on
  node death, deadline propagation, and the graceful-degradation
  ladder down to a local pool when the whole fleet is unreachable.

The fault drills in ``tests/cluster/test_cluster_drills.py`` run the
end-to-end failure scenarios (node SIGKILL mid-sweep,
partition-then-heal, slow-node redispatch) against real daemons, each
asserted bit-identical to a local baseline.

Entry points: ``run_matrix(..., cluster="host:port,host:port")`` or
the experiments CLI's ``--cluster`` flag.
"""

from .health import (
    DEAD,
    HEALTHY,
    PROBATION,
    SUSPECT,
    HealthPolicy,
    NodeHealth,
)
from .pool import ClusterNode, ClusterPool

__all__ = [
    "ClusterNode",
    "ClusterPool",
    "DEAD",
    "HEALTHY",
    "HealthPolicy",
    "NodeHealth",
    "PROBATION",
    "SUSPECT",
]
