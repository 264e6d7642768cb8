"""Paired PF/NPF experiment execution.

Every data point in Figs. 3-6 is one *pair* of runs over an identical
trace: EEVFS with prefetching (PF) and without (NPF).  The pair shares
the trace object and the seed, so the only difference is policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import ClusterSpec, EEVFSConfig
from repro.core.filesystem import run_eevfs, RunResult
from repro.metrics.comparison import compare, PairedComparison
from repro.traces.model import Trace


@dataclass(frozen=True)
class PairResult:
    """One x-axis point of a sweep: the parameter value and both runs."""

    parameter: str
    value: object
    comparison: PairedComparison

    @property
    def pf(self) -> RunResult:
        return self.comparison.pf

    @property
    def npf(self) -> RunResult:
        return self.comparison.npf


def run_pair(
    trace: Trace,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
    obs: bool = False,
    replay_mode: str = "paced",
) -> PairedComparison:
    """Run PF and NPF over the same *trace* and compare.

    ``obs`` attaches observability (span traces on both runs' results);
    ``replay_mode`` is the client discipline of both runs (see
    :meth:`~repro.core.filesystem.EEVFSCluster.run`).
    """
    config = config or EEVFSConfig()
    pf = run_eevfs(
        trace, config.as_pf(), cluster, seed, replay_mode=replay_mode, obs=obs
    )
    npf = run_eevfs(
        trace, config.as_npf(), cluster, seed, replay_mode=replay_mode, obs=obs
    )
    return compare(pf, npf)
