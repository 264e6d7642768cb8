"""Request service-time model.

Service time for one request is::

    positioning (seek + rotational latency)  --  skipped for sequential I/O
    + size / bandwidth                        --  media transfer

Buffer disks are *log disks* (§I: "data can be written onto the log disks
in a sequential manner"), so writes to them are sequential; the node marks
those requests accordingly and they skip positioning.  The model draws no
randomness: spin-up durations (``spinup_jitter`` of
:class:`~repro.disk.drive.StorageBackend`) are the only mechanical
variability simulated.
"""

from __future__ import annotations

from repro.disk.specs import DiskSpec


class ServiceTimeModel:
    """Computes per-request service times for a drive of *spec*."""

    def __init__(self, spec: DiskSpec) -> None:
        self.spec = spec

    def service_time(self, size_bytes: float, sequential: bool = False) -> float:
        """Seconds to serve one request of *size_bytes*."""
        if size_bytes < 0:
            raise ValueError(f"negative request size: {size_bytes!r}")
        base = self.spec.transfer_time(size_bytes)
        if not sequential:
            base += self.spec.positioning_s
        return base

    def throughput_bps(self, size_bytes: float, sequential: bool = False) -> float:
        """Effective throughput for requests of *size_bytes* (diagnostic)."""
        if size_bytes <= 0:
            raise ValueError(f"size must be > 0, got {size_bytes!r}")
        return size_bytes / self.service_time(size_bytes, sequential=sequential)
