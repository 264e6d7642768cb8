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

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.config import ClusterSpec, EEVFSConfig
from repro.core.filesystem import RunResult
from repro.parallel import JobSpec, run_jobs, TraceSpec
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


@dataclass
class SSDSweepPoint:
    """One sweep point: a PF/NPF pair on one buffer-tier configuration.

    ``backend`` is ``"hdd"`` for the reference pairs, where the flash
    knobs (``channels``, ``gc_free_fraction``) are meaningless and hold
    0 / 0.0.
    """

    backend: str
    capacity_mb: int
    channels: int
    gc_free_fraction: float
    pf: RunResult
    npf: RunResult

    @property
    def savings_pct(self) -> float:
        """PF energy savings vs NPF at this point."""
        npf = self.npf.energy_j
        return 100.0 * (npf - self.pf.energy_j) / npf if npf > 0 else 0.0

    @property
    def latency_delta_pct(self) -> float:
        npf = self.npf.mean_response_s
        return 100.0 * (self.pf.mean_response_s - npf) / npf if npf > 0 else 0.0


def _point_config(
    base: EEVFSConfig, backend: str, capacity_mb: int, channels: int, gc: float
) -> EEVFSConfig:
    """The PF config for one sweep point (NPF derives via ``as_npf``)."""
    if backend == "hdd":
        return replace(base, buffer_capacity_bytes=capacity_mb * MB)
    return replace(
        base,
        buffer_backend="ssd",
        buffer_capacity_bytes=capacity_mb * MB,
        ssd_capacity_mb=capacity_mb,
        ssd_channels=channels,
        ssd_gc_free_fraction=gc,
        ssd_buffer_idle_s=SSD_BUFFER_IDLE_S,
    )


def ssd_sweep_specs(
    capacities_mb: Sequence[int] = DEFAULT_CAPACITIES_MB,
    channels: Sequence[int] = DEFAULT_CHANNELS,
    gc_fractions: Sequence[float] = DEFAULT_GC_FRACTIONS,
    n_requests: int = 400,
    write_fraction: float = 0.4,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
    trace_seed: int = 1,
) -> Tuple[List[Tuple[str, int, int, float]], List[JobSpec]]:
    """Describe the sweep as single-run jobs (PF then NPF per point).

    Returns ``(points, specs)`` where ``points`` is the flat
    ``(backend, capacity_mb, channels, gc_free_fraction)`` list: one HDD
    reference per capacity, then the full SSD grid.
    """
    base = config if config is not None else EEVFSConfig()
    trace = TraceSpec(
        workload=SyntheticWorkload(
            n_requests=n_requests, write_fraction=write_fraction
        ),
        seed=trace_seed,
    )
    points: List[Tuple[str, int, int, float]] = []
    for cap in capacities_mb:
        points.append(("hdd", cap, 0, 0.0))
    for cap in capacities_mb:
        for ch in channels:
            for gc in gc_fractions:
                points.append(("ssd", cap, ch, gc))
    specs: List[JobSpec] = []
    for backend, cap, ch, gc in points:
        pf = _point_config(base, backend, cap, ch, gc)
        for system, cfg in (("pf", pf.as_pf()), ("npf", pf.as_npf())):
            specs.append(
                JobSpec(
                    label=f"ssd:{backend}:cap={cap}:ch={ch}:gc={gc}:{system}",
                    trace=trace,
                    config=cfg,
                    cluster=cluster,
                    seed=seed,
                    mode="eevfs",
                )
            )
    return points, specs


def ssd_sweep(
    capacities_mb: Sequence[int] = DEFAULT_CAPACITIES_MB,
    channels: Sequence[int] = DEFAULT_CHANNELS,
    gc_fractions: Sequence[float] = DEFAULT_GC_FRACTIONS,
    n_requests: int = 400,
    write_fraction: float = 0.4,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> List[SSDSweepPoint]:
    """Run the buffer-tier sweep; one :class:`SSDSweepPoint` per point."""
    points, specs = ssd_sweep_specs(
        capacities_mb,
        channels,
        gc_fractions,
        n_requests=n_requests,
        write_fraction=write_fraction,
        config=config,
        cluster=cluster,
        seed=seed,
    )
    results = iter(run_jobs(specs, jobs=jobs))
    out: List[SSDSweepPoint] = []
    for backend, cap, ch, gc in points:
        pf, npf = next(results), next(results)
        out.append(
            SSDSweepPoint(
                backend=backend,
                capacity_mb=cap,
                channels=ch,
                gc_free_fraction=gc,
                pf=pf,
                npf=npf,
            )
        )
    return out


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


def sweep_rows(points: Sequence[SSDSweepPoint]) -> List[List[object]]:
    """Flatten sweep points into report rows (flash columns from PF)."""
    rows: List[List[object]] = []
    for p in points:
        flash_free = p.backend != "ssd"
        rows.append(
            [
                p.backend,
                p.capacity_mb,
                "-" if flash_free else p.channels,
                "-" if flash_free else f"{p.gc_free_fraction:.2f}",
                f"{p.pf.energy_j:.0f}",
                f"{p.npf.energy_j:.0f}",
                f"{p.savings_pct:.1f}",
                f"{p.pf.mean_response_s * 1000:.1f}",
                "-" if flash_free else f"{p.pf.ssd_write_amplification:.2f}",
                "-" if flash_free else p.pf.ssd_erases,
                "-" if flash_free else p.pf.ssd_max_erase_count,
                p.pf.transitions,
            ]
        )
    return rows
