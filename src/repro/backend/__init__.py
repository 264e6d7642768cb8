"""Storage backends (the device layer behind the node).

Every device is a :class:`~repro.disk.drive.StorageBackend`: the
paper's spinning drive (:class:`~repro.disk.drive.SimDisk`) or the
FTL-level SSD model here (:class:`SSDBackend`).  The backend is chosen
per tier by :class:`~repro.core.config.EEVFSConfig`, and the storage
node builds each device itself; :meth:`SSDSpec.for_config` applies the
config's flash overrides.
"""

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
]
