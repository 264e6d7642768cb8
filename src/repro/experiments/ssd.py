"""The SSD buffer-tier sweep (`eevfs ssd`).

What does an FTL-level SSD buy (or cost) as the buffer tier?  The paper
runs its buffer disk on a spindle because that is what 2010 hardware
offered; ``repro.backend`` makes the tier pluggable, and this experiment
sweeps the interesting flash knobs -- logical capacity, channel
parallelism and the GC free-block reserve -- with PF and NPF runs per
point plus an HDD-buffer reference pair per capacity.

The workload is deliberately write-heavy (default 40% writes): prefetch
copies and staged writes both land in the SSD's write cache and destage
through the FTL, and rewrite churn is what makes garbage collection,
write amplification and erase wear visible.  A read-only corpus never
wraps the buffer (placement respects its capacity), so WA stays at 1.0
and the sweep would measure nothing flash-specific.

Determinism: ``eevfs ssd --json`` writes every run's
:meth:`~repro.core.filesystem.RunResult.record` as canonical JSON; CI's
ssd-smoke job runs the same seed twice and byte-compares the two files
with each other and with ``tests/golden/ssd.json``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.config import EEVFSConfig
from repro.experiments.study import compared, pair, Results, Study
from repro.parallel import JobSpec, TraceSpec
from repro.traces.synthetic import MB, SyntheticWorkload

#: Default sweep grid: small enough that per-node write volume exceeds
#: the buffer and the extent ring wraps (GC pressure), spanning the
#: channel-parallelism range of commodity SATA parts.
DEFAULT_CAPACITIES_MB = (16, 32, 64)
DEFAULT_CHANNELS = (1, 2, 4)
DEFAULT_GC_FRACTIONS = (0.10,)

#: Idle seconds before the SSD buffer drops into DEVSLP.  Milliseconds
#: of break-even make a short timer safe; the HDD reference keeps the
#: paper's never-sleeping buffer disk.
SSD_BUFFER_IDLE_S = 2.0


def _point_config(backend: str, capacity_mb: int, channels: int, gc: float) -> EEVFSConfig:
    """The PF config for one sweep point (NPF derives via ``as_npf``)."""
    if backend == "hdd":
        return EEVFSConfig(buffer_capacity_bytes=capacity_mb * MB)
    return EEVFSConfig(
        buffer_backend="ssd",
        buffer_capacity_bytes=capacity_mb * MB,
        ssd_capacity_mb=capacity_mb,
        ssd_channels=channels,
        ssd_gc_free_fraction=gc,
        ssd_buffer_idle_s=SSD_BUFFER_IDLE_S,
    )


def ssd_study(
    capacities_mb: Sequence[int] = DEFAULT_CAPACITIES_MB,
    channels: Sequence[int] = DEFAULT_CHANNELS,
    gc_fractions: Sequence[float] = DEFAULT_GC_FRACTIONS,
    n_requests: int = 400,
    write_fraction: float = 0.4,
    seed: int = 0,
) -> Study:
    """One PF/NPF pair per buffer tier, keyed ``(backend, capacity_mb,
    channels, gc_free_fraction)``: an HDD reference per capacity (whose
    flash knobs are meaningless and hold 0 / 0.0), then the SSD grid;
    all over one synthetic trace of rng seed 1."""
    workload = SyntheticWorkload(n_requests=n_requests, write_fraction=write_fraction)
    points = [("hdd", cap, 0, 0.0) for cap in capacities_mb] + [
        ("ssd", cap, ch, gc)
        for cap in capacities_mb
        for ch in channels
        for gc in gc_fractions
    ]
    return {
        point: pair(
            JobSpec(
                trace=TraceSpec(workload=workload),
                config=_point_config(*point),
                seed=seed,
            )
        )
        for point in points
    }


SSD_HEADERS = [
    "buffer",
    "cap_mb",
    "ch",
    "gc",
    "pf_energy_j",
    "npf_energy_j",
    "save_%",
    "resp_ms",
    "WA",
    "erases",
    "max_erase",
    "transitions",
]


def ssd_rows(results: Results) -> List[List[object]]:
    """One report row per point (flash columns from PF)."""
    rows: List[List[object]] = []
    for (backend, capacity_mb, channels, gc), c in compared(results).items():
        flash_free = backend != "ssd"
        rows.append(
            [
                backend,
                capacity_mb,
                "-" if flash_free else channels,
                "-" if flash_free else f"{gc:.2f}",
                f"{c.pf.energy_j:.0f}",
                f"{c.npf.energy_j:.0f}",
                f"{c.energy_savings_pct:.1f}",
                f"{c.pf.mean_response_s * 1000:.1f}",
                "-" if flash_free else f"{c.pf.ssd_write_amplification:.2f}",
                "-" if flash_free else c.pf.ssd_erases,
                "-" if flash_free else c.pf.ssd_max_erase_count,
                c.pf.transitions,
            ]
        )
    return rows
