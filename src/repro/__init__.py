"""EEVFS reproduction: energy-efficient prefetching with buffer disks.

A from-scratch Python implementation and evaluation harness for

    A. Manzanares et al., "Energy Efficient Prefetching with Buffer Disks
    for Cluster File Systems", ICPP 2010.

Quick start::

    import numpy as np
    from repro import EEVFSConfig, run_eevfs
    from repro.traces import generate_synthetic_trace
    from repro.traces.synthetic import SyntheticWorkload

    trace = generate_synthetic_trace(
        SyntheticWorkload(), rng=np.random.default_rng(1)
    )
    pf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=True))
    npf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))
    print(f"energy savings: {100 * (1 - pf.energy_j / npf.energy_j):.1f} %")

Package map
-----------
``repro.sim``         deterministic discrete-event simulation kernel
``repro.disk``        drive power states, specs, service and energy models
``repro.net``         NICs and the switching fabric
``repro.traces``      workload generators, trace files, the access log
``repro.core``        EEVFS itself (server, nodes, prefetch, power mgmt)
``repro.baselines``   configs, clusters and nodes of the §II comparators
``repro.metrics``     paired comparisons and plain-text reporting
``repro.experiments`` every table and figure of the paper's evaluation
"""

from repro.core import (
    ClusterSpec,
    default_cluster,
    EEVFSCluster,
    EEVFSConfig,
    NodeSpec,
    run_eevfs,
    RunResult,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterSpec",
    "EEVFSCluster",
    "EEVFSConfig",
    "NodeSpec",
    "RunResult",
    "__version__",
    "default_cluster",
    "run_eevfs",
]
