"""Energy-aware replication for the EEVFS reproduction.

Replica placement across storage nodes, degraded reads that fail over to
surviving holders (or buffer-disk copies), and background re-replication
that restores factor *k* after failures while respecting disk power
state:

* :mod:`repro.replication.policy` -- placement policies
  (k-way round-robin, popularity-spread),
* :mod:`repro.replication.repair` -- :class:`ReplicationManager`, the
  server-side repair loop.
"""

from repro.replication.policy import plan_replicas, REPLICATION_POLICIES
from repro.replication.repair import ReplicationManager

__all__ = [
    "REPLICATION_POLICIES",
    "ReplicationManager",
    "plan_replicas",
]
