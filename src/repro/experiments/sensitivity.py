"""Sensitivity of the conclusions to the substituted power model.

The testbed's power figures are not in the paper; DESIGN.md documents
the calibration we chose.  A reproduction whose *conclusions* depended
on that choice would be fragile -- so this module re-runs the headline
comparison across a grid of power-model perturbations (node base power
and disk power each scaled over a range) and reports how the savings
move.  The benchmark asserts the qualitative result (PF wins; savings in
a single-digit-to-twenties band) across the whole grid.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.core.config import ClusterSpec, default_cluster
from repro.disk.specs import DiskSpec
from repro.experiments.study import compared, pair, run_study
from repro.metrics.report import format_table
from repro.parallel import JobSpec, TraceSpec
from repro.traces.synthetic import SyntheticWorkload


def scale_disk_power(spec: DiskSpec, factor: float) -> DiskSpec:
    """Scale every power/energy figure of a drive by *factor*."""
    if factor <= 0:
        raise ValueError(f"factor must be > 0, got {factor!r}")
    return spec.with_overrides(
        power_active_w=spec.power_active_w * factor,
        power_idle_w=spec.power_idle_w * factor,
        power_standby_w=spec.power_standby_w * factor,
        spinup_energy_j=spec.spinup_energy_j * factor,
        spindown_energy_j=spec.spindown_energy_j * factor,
    )


def perturbed_cluster(
    base_power_factor: float = 1.0,
    disk_power_factor: float = 1.0,
) -> ClusterSpec:
    """The default testbed with its power model scaled."""
    if base_power_factor <= 0 or disk_power_factor <= 0:
        raise ValueError("factors must be > 0")
    base = default_cluster()
    nodes = tuple(
        replace(
            node,
            base_power_w=node.base_power_w * base_power_factor,
            disk_spec=scale_disk_power(node.disk_spec, disk_power_factor),
            buffer_disk_spec=scale_disk_power(node.buffer_spec, disk_power_factor),
        )
        for node in base.storage_nodes
    )
    return replace(base, storage_nodes=nodes)


def power_model_sensitivity(
    base_factors: Sequence[float] = (0.5, 1.0, 1.5),
    disk_factors: Sequence[float] = (0.7, 1.0, 1.3),
    n_requests: int = 1000,
    seed: int = 0,
) -> Dict[Tuple[float, float], float]:
    """Savings (%) over the (base power x disk power) perturbation grid,
    one PF/NPF pair per cell on the synthetic trace of rng seed 1.

    Scaling both transition energies and state powers together keeps each
    perturbed drive physically consistent (its break-even time is
    invariant under a uniform scale).
    """
    trace = TraceSpec(workload=SyntheticWorkload(n_requests=n_requests))
    study = {
        (base, disk): pair(
            JobSpec(trace=trace, cluster=perturbed_cluster(base, disk), seed=seed)
        )
        for base in base_factors
        for disk in disk_factors
    }
    comparisons = compared(run_study(study))
    return {cell: c.energy_savings_pct for cell, c in comparisons.items()}


def render_sensitivity(grid: Dict[Tuple[float, float], float]) -> str:
    """Render the savings grid: rows = base-power factor, cols = disk."""
    base_factors = sorted({k[0] for k in grid})
    disk_factors = sorted({k[1] for k in grid})
    headers = ["base\\disk", *(f"disk x{d}" for d in disk_factors)]
    rows: List[List[object]] = [
        [f"base x{b}", *(grid[(b, d)] for d in disk_factors)]
        for b in base_factors
    ]
    return format_table(
        headers,
        rows,
        title="Energy savings (%) vs power-model perturbation",
    )
