"""Disk substrate: power states, drive specifications, service and energy.

EEVFS saves energy by moving *data disks* into standby; everything it
measures (joules, state transitions, response-time penalties) is a function
of the disk model defined here:

* :mod:`repro.disk.states` -- the power-state machine,
* :mod:`repro.disk.specs` -- drive parameter sets (a catalog mirroring the
  paper's Table I testbed drives), each timing its own request service
  (seek + rotation + transfer, :meth:`DiskSpec.service_time`),
* :mod:`repro.disk.energy` -- energy metering and break-even analysis,
* :mod:`repro.disk.drive` -- :class:`StorageBackend`, what every device
  model shares, and :class:`SimDisk`, the simulated drive.
"""

from repro.disk.drive import DiskRequest, RequestKind, SimDisk, StorageBackend
from repro.disk.energy import break_even_time, EnergyMeter, standby_power_savings
from repro.disk.specs import (
    ATA_80GB_TYPE1,
    ATA_80GB_TYPE2,
    DISK_CATALOG,
    DiskSpec,
    SATA_120GB_SERVER,
)
from repro.disk.states import DiskState, LEGAL_TRANSITIONS, validate_transition

__all__ = [
    "ATA_80GB_TYPE1",
    "ATA_80GB_TYPE2",
    "DISK_CATALOG",
    "DiskRequest",
    "DiskSpec",
    "DiskState",
    "EnergyMeter",
    "LEGAL_TRANSITIONS",
    "RequestKind",
    "SATA_120GB_SERVER",
    "SimDisk",
    "StorageBackend",
    "break_even_time",
    "standby_power_savings",
    "validate_transition",
]
