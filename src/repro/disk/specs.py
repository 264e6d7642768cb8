"""Drive parameter sets.

The testbed in the paper's Table I uses three drive configurations:

* storage server: 120 GB SATA, 100 MB/s,
* type-1 storage node: 80 GB ATA/133, 58 MB/s,
* type-2 storage node: 80 GB ATA/133, 34 MB/s.

Table I gives no power figures, but §VI-C states spin-ups "average around
2 sec" and §V-B fixes the disk idle threshold at 5 s.  The power numbers
below are representative of early-2000s 7200 RPM desktop ATA drives (the
class the testbed used) and are chosen so the break-even time lands just
above the paper's 5 s idle threshold -- the regime the paper's policy
implicitly assumes (sleeping at the threshold is worthwhile).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True)
class LowSpeedProfile:
    """The reduced-RPM operating point of a multi-speed (DRPM) drive."""

    bandwidth_bps: float
    power_active_w: float
    power_idle_w: float
    #: Duration / energy of one speed shift (either direction).
    shift_s: float
    shift_energy_j: float

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("low-speed bandwidth must be > 0")
        if not 0 < self.power_idle_w <= self.power_active_w:
            raise ValueError("low-speed powers must satisfy 0 < idle <= active")
        if self.shift_s < 0 or self.shift_energy_j < 0:
            raise ValueError("shift cost must be >= 0")

    @property
    def shift_power_w(self) -> float:
        """Mean power draw during a speed shift."""
        return self.shift_energy_j / self.shift_s if self.shift_s else 0.0


@dataclass(frozen=True)
class DiskSpec:
    """Immutable physical description of one drive model.

    All times in seconds, powers in watts, energies in joules.
    """

    name: str
    capacity_bytes: int
    #: Sustained sequential transfer rate, bytes/second.
    bandwidth_bps: float
    #: Average seek time for a random access.
    avg_seek_s: float
    #: Average rotational latency (half a revolution).
    avg_rotation_s: float
    #: Power while transferring data.
    power_active_w: float
    #: Power while spinning idle.
    power_idle_w: float
    #: Power in standby (spun down).
    power_standby_w: float
    #: Duration / total energy of a spin-up (STANDBY -> IDLE).
    spinup_s: float
    spinup_energy_j: float
    #: Duration / total energy of a spin-down (IDLE -> STANDBY).
    spindown_s: float
    spindown_energy_j: float
    #: Rated start/stop (contact start-stop or load/unload) cycles --
    #: the §VI-B reliability budget that frequent transitions consume.
    rated_start_stop_cycles: int = 50_000
    #: Multi-speed (DRPM) capability; None for ordinary drives.
    low_speed: "LowSpeedProfile | None" = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.bandwidth_bps <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        for attr in ("avg_seek_s", "avg_rotation_s", "spinup_s", "spindown_s"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{self.name}: {attr} must be non-negative")
        if not (self.power_standby_w < self.power_idle_w <= self.power_active_w):
            raise ValueError(
                f"{self.name}: power ordering must be standby < idle <= active"
            )
        if self.spinup_energy_j < self.power_standby_w * self.spinup_s:
            raise ValueError(f"{self.name}: spin-up energy below standby floor")
        if self.rated_start_stop_cycles <= 0:
            raise ValueError(f"{self.name}: rated_start_stop_cycles must be > 0")
        if self.low_speed is not None:
            if self.low_speed.bandwidth_bps >= self.bandwidth_bps:
                raise ValueError(f"{self.name}: low speed must be slower")
            if self.low_speed.power_idle_w >= self.power_idle_w:
                raise ValueError(f"{self.name}: low speed must draw less power")
            if self.low_speed.power_idle_w <= self.power_standby_w:
                raise ValueError(f"{self.name}: low-speed idle above standby")

    @property
    def is_multi_speed(self) -> bool:
        """Whether the drive supports a reduced-RPM operating point."""
        return self.low_speed is not None

    # -- derived quantities ----------------------------------------------------

    @property
    def spinup_power_w(self) -> float:
        """Mean power draw during a spin-up."""
        return self.spinup_energy_j / self.spinup_s if self.spinup_s else 0.0

    @property
    def spindown_power_w(self) -> float:
        """Mean power draw during a spin-down."""
        return self.spindown_energy_j / self.spindown_s if self.spindown_s else 0.0

    @property
    def positioning_s(self) -> float:
        """Mean positioning overhead (seek + rotational latency)."""
        return self.avg_seek_s + self.avg_rotation_s

    def service_time(self, size_bytes: float, sequential: bool = False) -> float:
        """Seconds to serve one request of *size_bytes*: media transfer,
        plus positioning (seek + rotational latency) unless *sequential*.

        Buffer disks are *log disks* (§I: "data can be written onto the
        log disks in a sequential manner"), so the node marks writes to
        them sequential and they skip positioning.  No randomness: the
        spin-up jitter of :class:`~repro.disk.drive.StorageBackend` is
        the only mechanical variability simulated.
        """
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes!r}")
        base = size_bytes / self.bandwidth_bps
        if not sequential:
            base += self.avg_seek_s + self.avg_rotation_s
        return base

    def with_overrides(self, **kwargs: Any) -> "DiskSpec":
        """Return a copy with selected fields replaced (for ablations)."""
        return replace(self, **kwargs)


#: Type-1 storage node drive (Table I: ATA/133, 80 GB, 58 MB/s).
#: Break-even time: (30 + 5.5 - 1.0*3.0) / (7.5 - 1.0) = 5.0 s, exactly the
#: paper's disk idle threshold.
ATA_80GB_TYPE1 = DiskSpec(
    name="ata133-80g-type1",
    capacity_bytes=80 * GB,
    bandwidth_bps=58 * MB,
    avg_seek_s=0.0085,
    avg_rotation_s=0.0042,  # 7200 RPM -> 4.17 ms average
    power_active_w=10.5,
    power_idle_w=7.5,
    power_standby_w=1.0,
    spinup_s=2.0,  # §VI-C: "average around 2 sec"
    spinup_energy_j=30.0,
    spindown_s=1.0,
    spindown_energy_j=5.5,
)

#: Type-2 storage node drive (Table I: ATA/133, 80 GB, 34 MB/s).
ATA_80GB_TYPE2 = DiskSpec(
    name="ata133-80g-type2",
    capacity_bytes=80 * GB,
    bandwidth_bps=34 * MB,
    avg_seek_s=0.0095,
    avg_rotation_s=0.0056,  # 5400 RPM class
    power_active_w=10.0,
    power_idle_w=7.0,
    power_standby_w=1.0,
    spinup_s=2.2,
    spinup_energy_j=32.0,
    spindown_s=1.0,
    spindown_energy_j=5.0,
)

#: Storage-server drive (Table I: SATA, 120 GB, 100 MB/s).
SATA_120GB_SERVER = DiskSpec(
    name="sata-120g-server",
    capacity_bytes=120 * GB,
    bandwidth_bps=100 * MB,
    avg_seek_s=0.0080,
    avg_rotation_s=0.0042,
    power_active_w=10.5,
    power_idle_w=7.0,
    power_standby_w=1.5,
    spinup_s=1.8,
    spinup_energy_j=24.0,
    spindown_s=1.0,
    spindown_energy_j=4.5,
)

#: A 2.5-inch laptop-class drive, for the §II "replace high-performance
#: disks with new energy-efficient disks" alternative ([20], [21]).  Far
#: lower power at far lower bandwidth; small break-even time.
LOWPOWER_25IN_160GB = DiskSpec(
    name="lowpower-2.5in-160g",
    capacity_bytes=160 * GB,
    bandwidth_bps=30 * MB,
    avg_seek_s=0.012,
    avg_rotation_s=0.0056,  # 5400 RPM
    power_active_w=3.5,
    power_idle_w=1.6,
    power_standby_w=0.4,
    spinup_s=1.5,
    spinup_energy_j=6.0,
    spindown_s=0.5,
    spindown_energy_j=1.0,
    rated_start_stop_cycles=300_000,  # load/unload-rated mobile drive
)

#: A DRPM-style multi-speed drive ([10]): the type-1 drive with a
#: 4200-RPM-class operating point.  At low speed it draws roughly half
#: the idle power at roughly half the bandwidth; one speed shift takes
#: ~1 s -- far cheaper than the 2 s spin-up + 30 J of a standby round
#: trip, which is the whole DRPM argument against large break-even times.
MULTISPEED_80GB = ATA_80GB_TYPE1.with_overrides(
    name="drpm-80g-multispeed",
    low_speed=LowSpeedProfile(
        bandwidth_bps=30 * MB,
        power_active_w=6.0,
        power_idle_w=4.0,
        shift_s=1.0,
        shift_energy_j=9.0,
    ),
)

#: Name -> spec lookup for configuration files and the CLI.
DISK_CATALOG: Dict[str, DiskSpec] = {
    spec.name: spec
    for spec in (
        ATA_80GB_TYPE1,
        ATA_80GB_TYPE2,
        SATA_120GB_SERVER,
        LOWPOWER_25IN_160GB,
        MULTISPEED_80GB,
    )
}
