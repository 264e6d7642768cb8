"""Multi-seed repetitions: confidence intervals for the headline numbers.

The paper reports single measurements.  Our runs are deterministic given
a seed, but spin-up jitter and workload draws make each seed one sample;
this module repeats an experiment across seeds and reports mean and a
t-based confidence interval, so shape claims can be asserted with
statistical backing rather than one lucky draw.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional, Sequence

import numpy as np

from repro.core.config import ClusterSpec, EEVFSConfig
from repro.experiments.study import compared, pair, run_study
from repro.parallel import JobSpec, TraceSpec
from repro.traces.synthetic import SyntheticWorkload

#: Two-sided 95 % t critical values for small sample sizes (df 1..30).
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    25: 2.060, 30: 2.042,
}


def t_critical_95(df: int) -> float:
    """Two-sided 95 % Student-t critical value (1.96 beyond df=30)."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df!r}")
    if df in _T95:
        return _T95[df]
    if df < 30:
        return _T95[min(k for k in _T95 if k >= df)]
    return 1.96


@dataclass(frozen=True)
class RepeatedMetric:
    """Mean and 95 % confidence interval of one metric over seeds."""

    name: str
    samples: tuple

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        if self.n < 2:
            return float("nan")
        return float(np.std(self.samples, ddof=1))

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the 95 % CI on the mean (nan for n < 2)."""
        if self.n < 2:
            return float("nan")
        return t_critical_95(self.n - 1) * self.std / math.sqrt(self.n)

    def __str__(self) -> str:
        if self.n < 2:
            return f"{self.name}: {self.mean:.4g} (n=1)"
        return (
            f"{self.name}: {self.mean:.4g} +/- {self.ci95_halfwidth:.2g} "
            f"(95 % CI, n={self.n})"
        )


@dataclass(frozen=True)
class RepetitionResult:
    """All repeated metrics from a multi-seed pair experiment."""

    savings_pct: RepeatedMetric
    penalty_pct: RepeatedMetric
    transitions: RepeatedMetric
    comparisons: tuple

    def render(self) -> str:
        return "\n".join(
            str(m) for m in (self.savings_pct, self.penalty_pct, self.transitions)
        )


def repeat_pair(
    workload: Optional[SyntheticWorkload] = None,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    vary_trace: bool = True,
    jobs: Optional[int] = 1,
) -> RepetitionResult:
    """Run the PF/NPF pair once per seed and aggregate.

    ``vary_trace=True`` redraws the workload per seed (both sources of
    randomness vary); False replays one fixed trace so only simulation
    jitter varies.  Traces are identified by their rng seed and fetched
    from the process-wide cache, so the fixed trace is generated once no
    matter how many seeds repeat it.  ``jobs`` fans the seeds out over
    worker processes.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    workload = workload or SyntheticWorkload()
    study = {
        seed: pair(
            JobSpec(
                trace=TraceSpec(
                    workload=workload,
                    seed=(1000 + seed) if vary_trace else 1,
                ),
                config=config,
                cluster=cluster,
                seed=seed,
            )
        )
        for seed in seeds
    }
    comparisons = list(compared(run_study(study, jobs=jobs)).values())
    return RepetitionResult(
        savings_pct=RepeatedMetric(
            "energy savings (%)",
            tuple(c.energy_savings_pct for c in comparisons),
        ),
        penalty_pct=RepeatedMetric(
            "response penalty (%)",
            tuple(c.response_penalty_pct for c in comparisons),
        ),
        transitions=RepeatedMetric(
            "PF transitions",
            tuple(float(c.pf.transitions) for c in comparisons),
        ),
        comparisons=tuple(comparisons),
    )
