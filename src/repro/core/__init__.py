"""EEVFS core: the paper's contribution.

The Energy Efficient Virtual File System coordinates a storage server,
storage nodes (each with one buffer disk and several data disks), and
client workloads to conserve disk energy through popularity-based
placement, buffer-disk prefetching, and predictive power management.

Module map (paper section in parentheses):

* :mod:`repro.core.config`     -- cluster + policy configuration (§V, Tables I/II)
* :mod:`repro.core.protocol`   -- the Fig. 2 message vocabulary
* :mod:`repro.core.metadata`   -- server/node metadata (§III-A, §IV-D)
* :mod:`repro.core.popularity` -- popularity from the access log (§IV-A)
* :mod:`repro.core.placement`  -- popularity round-robin placement (§III-B)
* :mod:`repro.core.prefetch`   -- buffer-disk prefetch planning (§III-C, §IV-B)
* :mod:`repro.core.prediction` -- the §III-C sleep threshold
* :mod:`repro.core.power`      -- the storage-node power manager (§III-C, §IV-C)
* :mod:`repro.core.writebuffer`-- buffer-disk write buffering (§III-C)
* :mod:`repro.core.server`     -- the storage server (§III-A)
* :mod:`repro.core.node`       -- the storage node (§III-A/B/C)
* :mod:`repro.core.client`     -- the trace-replaying client (Fig. 2, 5-6)
* :mod:`repro.core.filesystem` -- :class:`EEVFSCluster`, the one-call facade
"""

from repro.core.config import (
    ClusterSpec,
    default_cluster,
    EEVFSConfig,
    NodeSpec,
    PARAMETER_GRID,
)
from repro.core.filesystem import EEVFSCluster, run_eevfs, RunResult

__all__ = [
    "ClusterSpec",
    "EEVFSCluster",
    "EEVFSConfig",
    "NodeSpec",
    "PARAMETER_GRID",
    "RunResult",
    "default_cluster",
    "run_eevfs",
]
