"""Pluggable storage backends (the device layer behind the node).

Every device is a :class:`~repro.disk.drive.StorageBackend`: the
paper's spinning drive (:class:`~repro.disk.drive.SimDisk`) or the
FTL-level SSD model here (:class:`SSDBackend`).  Backend selection is
wired per tier through :class:`~repro.core.config.EEVFSConfig` and
resolved by :func:`tier_spec` + :func:`build_backend`.
"""

from repro.backend.factory import (
    TierSpec,
    build_backend,
    resolve_ssd_spec,
    tier_spec,
)
from repro.backend.ftl import ExtentMap, FTLCounters, GCEvent, PageMappedFTL
from repro.backend.ssd import SATA_SSD_8GB, SATA_SSD_32GB, SSDBackend, SSDSpec

__all__ = [
    "ExtentMap",
    "FTLCounters",
    "GCEvent",
    "PageMappedFTL",
    "SATA_SSD_32GB",
    "SATA_SSD_8GB",
    "SSDBackend",
    "SSDSpec",
    "TierSpec",
    "build_backend",
    "resolve_ssd_spec",
    "tier_spec",
]
