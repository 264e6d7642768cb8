"""Crossover finders: where does prefetching stop (or start) paying?

The figures show trends at four grid points; operators want the
boundaries -- the lightest prefetch depth that clears a savings target,
or the load level at which PF stops winning.  These helpers search the
parameter space (integer bisection over monotone responses) instead of
eyeballing a chart.  They run each probe directly (:func:`run_pair`),
since the next probe depends on the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import ClusterSpec, EEVFSConfig
from repro.experiments.study import run_pair
from repro.traces.model import Trace
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload


@dataclass(frozen=True)
class CrossoverResult:
    """Outcome of a boundary search."""

    parameter: str
    value: Optional[float]
    target: float
    evaluations: Dict[float, float]

    @property
    def found(self) -> bool:
        return self.value is not None


def _savings_for_k(trace: Trace, k: int, cluster, seed: int) -> float:
    comparison = run_pair(
        trace, config=EEVFSConfig(prefetch_files=k), cluster=cluster, seed=seed
    )
    return comparison.energy_savings_pct


def find_min_effective_k(
    target_savings_pct: float,
    trace: Optional[Trace] = None,
    n_requests: int = 600,
    k_max: int = 200,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
) -> CrossoverResult:
    """Smallest prefetch depth K whose savings reach the target.

    Savings are monotone in K (Fig. 3d), so integer bisection applies.
    Returns ``value=None`` if even ``k_max`` misses the target.
    """
    if target_savings_pct <= 0:
        raise ValueError("target must be > 0")
    trace = (
        trace
        if trace is not None
        else generate_synthetic_trace(
            SyntheticWorkload(n_requests=n_requests), rng=np.random.default_rng(1)
        )
    )
    evaluations: Dict[float, float] = {}

    def savings(k: int) -> float:
        if k not in evaluations:
            evaluations[k] = _savings_for_k(trace, k, cluster, seed)
        return evaluations[k]

    if savings(k_max) < target_savings_pct:
        return CrossoverResult(
            parameter="prefetch_files",
            value=None,
            target=target_savings_pct,
            evaluations=evaluations,
        )
    lo, hi = 0, k_max  # savings(lo)=0 < target <= savings(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if savings(mid) >= target_savings_pct:
            hi = mid
        else:
            lo = mid
    return CrossoverResult(
        parameter="prefetch_files",
        value=float(hi),
        target=target_savings_pct,
        evaluations=evaluations,
    )


def find_savings_floor_inter_arrival(
    min_savings_pct: float = 0.0,
    n_requests: int = 600,
    ia_grid_ms: tuple = (0, 50, 100, 200, 350, 500, 700),
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
) -> CrossoverResult:
    """Lightest load (smallest inter-arrival) at which PF still clears
    the savings floor.

    Savings degrade as the load compresses (Fig. 3c); this scans the
    grid from heavy to light and returns the first inter-arrival delay
    whose savings meet the floor.
    """
    evaluations: Dict[float, float] = {}
    for ia_ms in ia_grid_ms:
        workload = SyntheticWorkload(
            n_requests=n_requests, inter_arrival_s=ia_ms / 1000.0
        )
        trace = generate_synthetic_trace(workload, rng=np.random.default_rng(1))
        comparison = run_pair(trace, config=EEVFSConfig(), cluster=cluster, seed=seed)
        evaluations[ia_ms] = comparison.energy_savings_pct
        if comparison.energy_savings_pct >= min_savings_pct:
            return CrossoverResult(
                parameter="inter_arrival_ms",
                value=float(ia_ms),
                target=min_savings_pct,
                evaluations=evaluations,
            )
    return CrossoverResult(
        parameter="inter_arrival_ms",
        value=None,
        target=min_savings_pct,
        evaluations=evaluations,
    )
