"""The sharded, consensus-backed metadata plane.

The paper's storage server is a single thin metadata process; one fault
anywhere in the metadata path takes the whole cluster offline.  This
package shards the server's file -> node map across multiple simulated
metadata servers (consistent hashing over file ids), replicates each
shard across a configurable replica group, and keeps every shard serving
lookups through server crashes with a sim-time leader-election protocol
(simplified Raft: terms, randomized-but-seeded election timeouts,
log-replicated placement updates).

Layout:

* :mod:`repro.metaplane.ring` -- consistent hashing of file ids to shards,
* :mod:`repro.metaplane.messages` -- the consensus wire vocabulary,
* :mod:`repro.metaplane.server` -- one metadata-server replica (election,
  log replication, request routing when leader),
* :mod:`repro.metaplane.plane` -- the facade wiring shard groups together,
  plus the client-side router and the availability statistics.
"""

from repro.metaplane.plane import MetaPlane, MetaPlaneStats, ShardRouter, ShardStats
from repro.metaplane.ring import ShardRing
from repro.metaplane.server import MetadataServer

__all__ = [
    "MetaPlane",
    "MetaPlaneStats",
    "MetadataServer",
    "ShardRing",
    "ShardRouter",
    "ShardStats",
]
