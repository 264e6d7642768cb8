"""Start/stop wear accounting (§VI-B's reliability concern).

"This small amount of energy savings may not be worth the stress put on
the hard drives from the large amount of state changes."  Drives are
rated for a finite number of start/stop cycles; this module converts a
run's spin-up counts into a projected drive lifetime at that duty cycle,
so the energy-vs-wear trade-off becomes a number instead of a worry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.filesystem import RunResult

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0

#: Start/stop cycles a drive is rated for: the default
#: ``DiskSpec.rated_start_stop_cycles``.
RATED_START_STOP_CYCLES = 50_000


def cycles_per_year(spinups: int, duration_s: float) -> float:
    """Spin-up cycles per year at this run's observed duty cycle."""
    if duration_s <= 0:
        raise ValueError(f"duration must be > 0, got {duration_s!r}")
    if spinups < 0:
        raise ValueError(f"spinups must be >= 0, got {spinups!r}")
    return spinups * SECONDS_PER_YEAR / duration_s


def years_to_rated_limit(
    spinups: int, duration_s: float, rated_cycles: int
) -> float:
    """Years until the rated start/stop budget is exhausted (inf if no
    cycles occur)."""
    rate = cycles_per_year(spinups, duration_s)
    if rate == 0:
        return float("inf")
    return rated_cycles / rate


@dataclass(frozen=True)
class DiskWear:
    """Wear projection for one drive."""

    name: str
    spinups: int
    cycles_per_year: float
    years_to_limit: float


@dataclass(frozen=True)
class WearReport:
    """Cluster-wide wear projection from one run."""

    disks: List[DiskWear]
    duration_s: float

    @property
    def worst(self) -> Optional[DiskWear]:
        """The drive that exhausts its budget first (None if no wear)."""
        wearing = [d for d in self.disks if d.spinups > 0]
        if not wearing:
            return None
        return min(wearing, key=lambda d: d.years_to_limit)

    def rows(self) -> List[List[object]]:
        """Table rows: name, spin-ups, cycles/year, years to limit."""
        return [
            [d.name, d.spinups, d.cycles_per_year, d.years_to_limit]
            for d in self.disks
        ]


def wear_report(result: RunResult) -> WearReport:
    """Project drive wear from a run's per-disk spin-up counts.

    Every disk is matched against :data:`RATED_START_STOP_CYCLES` (the
    RunResult does not carry specs, and the testbed's drives all share
    that rating).
    """
    rated = RATED_START_STOP_CYCLES
    duration = result.duration_s
    disks = [
        DiskWear(
            name=disk.name,
            spinups=disk.spinups,
            cycles_per_year=cycles_per_year(disk.spinups, duration),
            years_to_limit=years_to_rated_limit(disk.spinups, duration, rated),
        )
        for node in result.nodes
        for disk in node.disks
    ]
    return WearReport(disks=disks, duration_s=duration)
