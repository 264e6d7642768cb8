"""DRPM-style multi-speed disk baseline (Gurumurthi et al. [10]).

§II: "One successful approach to overcoming large break-even times is to
use multi-speed disks ... The weakness of using multi-speed disks is
that there are few commercial multi-speed disks currently available on
the market."

This comparator swaps every data disk for a two-speed drive and applies
the simplest credible DRPM policy: after the idle threshold, shift to
the low-RPM point (a ~1 s / 9 J shift instead of a full spin-down) and
*serve from there* -- a low-speed disk can still answer requests, only
slower.  We deliberately never shift back up (the maximally
energy-biased variant); the response cost shows up as stretched
transfers rather than 2 s spin-up stalls.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import ClusterSpec, default_cluster, EEVFSConfig
from repro.core.node import StorageNode
from repro.disk.specs import MULTISPEED_80GB


class DRPMNode(StorageNode):
    """Storage node whose idle timers shift disks to low speed."""

    DISK_IDLE_ACTION = "low_speed"


def drpm_cluster() -> ClusterSpec:
    """The default cluster with multi-speed data disks.

    Buffer disks stay single-speed: they are never power-managed, so a
    multi-speed buffer would be wasted capability.
    """
    base = default_cluster()
    nodes = tuple(
        replace(node, disk_spec=MULTISPEED_80GB, buffer_disk_spec=node.buffer_spec)
        for node in base.storage_nodes
    )
    return replace(base, storage_nodes=nodes)


def drpm_config() -> EEVFSConfig:
    """DRPM policy: idle timers only, no prefetching, no hints."""
    return EEVFSConfig(
        prefetch_enabled=False,
        power_manage_without_prefetch=True,
        use_hints=False,
        wake_ahead=False,
    )
