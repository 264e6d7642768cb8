"""Baselines and comparators from the paper's related-work section (§II).

Each baseline reuses the same simulated cluster, so differences in
energy/transitions/response time are attributable purely to policy.
A comparator is a config, a cluster and a node class; this package
builds them, and :data:`repro.experiments.baseline_suite.SUITE` holds
each comparator as one :class:`~repro.parallel.JobSpec`:

* :mod:`repro.baselines.alwayson` -- prefetching on, power management off
  (isolates the caching effect from the sleep policy),
* :mod:`repro.baselines.maid`     -- a MAID-style on-demand LRU cache disk
  at the "storage-system level" [4],
* :mod:`repro.baselines.pdc`      -- PDC-style popular-data concentration
  [15] with idle-timer power management,
* :mod:`repro.baselines.drpm`     -- DRPM-style multi-speed data disks [10],
* :mod:`repro.baselines.lowpower` -- every disk swapped for a low-power
  mobile drive [20]/[21].

NPF, the paper's own comparator in every figure, is
``EEVFSConfig().as_npf()``.  A default run is the oracle-popularity
bound (popularity from the replay trace itself, §IV-A);
``EEVFSCluster.run(trace, history=older)`` takes popularity from a
stale history trace instead.
"""

from repro.baselines.alwayson import alwayson_config
from repro.baselines.drpm import drpm_cluster, drpm_config, DRPMNode
from repro.baselines.lowpower import lowpower_cluster
from repro.baselines.maid import LRUFileCache, maid_config, MAIDNode
from repro.baselines.pdc import pdc_config

__all__ = [
    "DRPMNode",
    "LRUFileCache",
    "MAIDNode",
    "drpm_cluster",
    "drpm_config",
    "alwayson_config",
    "lowpower_cluster",
    "maid_config",
    "pdc_config",
]
