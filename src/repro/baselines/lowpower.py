"""Low-power disk replacement baseline (§II, [20]/[21]).

"Another way to reduce energy dissipation in storage systems is to
replace high-performance disks with new energy-efficient disks. ... Low
power disk systems are an ideal candidate for energy savings, but they
may not always be a feasible alternative.  The goal of this study is to
develop an energy-efficient file system for existing disk arrays without
requiring any changes in the storage system hardware."

This baseline quantifies the road not taken: the same cluster with every
disk swapped for a 2.5-inch mobile drive, running plain NPF (the drives'
inherent efficiency is the whole strategy).  Comparing it against EEVFS
on the original disks shows the energy/performance/procurement triangle.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import ClusterSpec, default_cluster
from repro.disk.specs import LOWPOWER_25IN_160GB


def lowpower_cluster() -> ClusterSpec:
    """The default cluster with every node's disks replaced by the
    2.5-inch mobile drive."""
    base = default_cluster()
    nodes = tuple(
        replace(node, disk_spec=LOWPOWER_25IN_160GB, buffer_disk_spec=LOWPOWER_25IN_160GB)
        for node in base.storage_nodes
    )
    return replace(base, storage_nodes=nodes)
