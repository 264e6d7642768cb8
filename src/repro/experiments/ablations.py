"""Ablation studies beyond the paper's figures.

These exercise the design choices DESIGN.md calls out:

* **Idle threshold** -- the paper fixes 5 s (Table II); what do other
  thresholds do to savings and transitions?
* **Application hints** -- §IV-C claims EEVFS "can operate without the
  application hints"; this quantifies what the hints buy.
* **Disks per node** -- §VII conjectures savings "will increase as more
  disks are added to each EEVFS storage node".
* **Window predictor** -- sequence vs time (DESIGN.md §5.4).
* **Replay discipline** -- open vs paced vs closed client behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import default_cluster, EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.metrics.comparison import PairedComparison
from repro.metrics.report import format_series
from repro.parallel import JobSpec, run_jobs, TraceSpec
from repro.traces.cache import cached_trace
from repro.traces.model import Trace
from repro.traces.synthetic import SyntheticWorkload


def _default_trace(n_requests: int, trace_seed: int = 1) -> Trace:
    return cached_trace(
        "synthetic", SyntheticWorkload(n_requests=n_requests), trace_seed
    )


def _default_trace_spec(n_requests: int, trace_seed: int = 1) -> TraceSpec:
    return TraceSpec(
        workload=SyntheticWorkload(n_requests=n_requests), seed=trace_seed
    )


@dataclass
class AblationResult:
    """One ablation sweep: x values and the paired comparisons."""

    name: str
    x_label: str
    x_values: List[object]
    comparisons: List[PairedComparison]

    def render(self) -> str:
        return format_series(
            self.x_label,
            self.x_values,
            {
                "savings_pct": [c.energy_savings_pct for c in self.comparisons],
                "PF_transitions": [float(c.pf.transitions) for c in self.comparisons],
                "penalty_pct": [c.response_penalty_pct for c in self.comparisons],
            },
            title=f"=== Ablation: {self.name} ===",
        )


def ablate_idle_threshold(
    thresholds: Sequence[float] = (1.0, 2.0, 5.0, 10.0, 30.0),
    n_requests: int = 1000,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> AblationResult:
    """Sweep the disk idle threshold around the paper's 5 s."""
    trace = _default_trace_spec(n_requests)
    comparisons = run_jobs(
        [
            JobSpec(
                label=f"idle_threshold={t}",
                trace=trace,
                config=EEVFSConfig(idle_threshold_s=t),
                seed=seed,
            )
            for t in thresholds
        ],
        jobs=jobs,
    )
    return AblationResult(
        name="idle threshold",
        x_label="threshold_s",
        x_values=list(thresholds),
        comparisons=comparisons,
    )


def ablate_hints(
    n_requests: int = 1000, seed: int = 0, jobs: Optional[int] = 1
) -> AblationResult:
    """Hints + wake-ahead vs pure idle timers (§IV-C's two modes)."""
    trace = _default_trace_spec(n_requests)
    comparisons = run_jobs(
        [
            JobSpec(label="hints=with", trace=trace, config=EEVFSConfig(), seed=seed),
            JobSpec(
                label="hints=without",
                trace=trace,
                config=EEVFSConfig(use_hints=False, wake_ahead=False),
                seed=seed,
            ),
        ],
        jobs=jobs,
    )
    return AblationResult(
        name="application hints",
        x_label="hints",
        x_values=["with", "without"],
        comparisons=comparisons,
    )


def ablate_disks_per_node(
    disk_counts: Sequence[int] = (1, 2, 4, 8),
    n_requests: int = 1000,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> AblationResult:
    """§VII: does adding data disks per node increase savings?"""
    trace = _default_trace_spec(n_requests)
    comparisons = run_jobs(
        [
            JobSpec(
                label=f"disks_per_node={count}",
                trace=trace,
                config=EEVFSConfig(),
                cluster=default_cluster(data_disks_per_node=count),
                seed=seed,
            )
            for count in disk_counts
        ],
        jobs=jobs,
    )
    return AblationResult(
        name="data disks per node",
        x_label="disks_per_node",
        x_values=list(disk_counts),
        comparisons=comparisons,
    )


def ablate_window_predictor(
    n_requests: int = 1000, seed: int = 0, jobs: Optional[int] = 1
) -> AblationResult:
    """Sequence (drift-robust) vs time (timestamp-trusting) prediction."""
    trace = _default_trace_spec(n_requests)
    comparisons = run_jobs(
        [
            JobSpec(
                label=f"window_predictor={predictor}",
                trace=trace,
                config=EEVFSConfig(window_predictor=predictor),
                seed=seed,
            )
            for predictor in ("sequence", "time")
        ],
        jobs=jobs,
    )
    return AblationResult(
        name="window predictor",
        x_label="predictor",
        x_values=["sequence", "time"],
        comparisons=comparisons,
    )


def ablate_striping(
    widths: Sequence[int] = (1, 2, 4),
    n_requests: int = 1000,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> AblationResult:
    """§VII future work: striping vs energy savings.

    Uses 4 data disks per node so width-4 stripes exist; quantifies the
    performance-vs-savings tension (every miss wakes all stripe disks).
    """
    trace = _default_trace_spec(n_requests)
    cluster = default_cluster(data_disks_per_node=max(widths))
    comparisons = run_jobs(
        [
            JobSpec(
                label=f"stripe_width={w}",
                trace=trace,
                config=EEVFSConfig(stripe_width=w),
                cluster=cluster,
                seed=seed,
            )
            for w in widths
        ],
        jobs=jobs,
    )
    return AblationResult(
        name="striping (§VII)",
        x_label="stripe_width",
        x_values=list(widths),
        comparisons=comparisons,
    )


def ablate_placement_policy(
    n_requests: int = 1000,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> AblationResult:
    """Round-robin (§III-B) vs bandwidth-weighted placement.

    On the heterogeneous Table-I testbed, weighting placement by NIC rate
    routes most traffic through gigabit nodes -- a response-time win the
    paper's hardware-oblivious policy leaves on the table.
    """
    trace = _default_trace_spec(n_requests)
    comparisons = run_jobs(
        [
            JobSpec(
                label=f"placement={policy}",
                trace=trace,
                config=EEVFSConfig(placement_policy=policy),
                seed=seed,
            )
            for policy in ("round_robin", "bandwidth_weighted")
        ],
        jobs=jobs,
    )
    return AblationResult(
        name="placement policy",
        x_label="policy",
        x_values=["round_robin", "bandwidth_weighted"],
        comparisons=comparisons,
    )


def ablate_dynamic_prefetch(
    n_requests: int = 1000,
    seed: int = 0,
) -> Dict[str, object]:
    """Static vs dynamic prefetching on a drifting workload.

    Both policies get the same limited history (the trace's first 15 %);
    the dynamic policy then re-prefetches from the live request log every
    30 s over a 60 s popularity window, with no drift gate.  Returns the
    three runs.
    """
    from repro.traces.nonstationary import DriftingWorkload, generate_drifting_trace

    trace = generate_drifting_trace(
        DriftingWorkload(n_requests=n_requests), rng=np.random.default_rng(3)
    )
    history = trace.head(max(1, n_requests * 15 // 100))
    npf = EEVFSCluster(config=EEVFSConfig().as_npf(), seed=seed).run(
        trace, history=history
    )
    static = EEVFSCluster(config=EEVFSConfig(), seed=seed).run(trace, history=history)
    dynamic = EEVFSCluster(
        config=EEVFSConfig(
            popularity_window_s=60.0,
            online_replan_epoch_s=30.0,
            online_drift_threshold=0.0,
        ),
        seed=seed,
    ).run(trace, history=history)
    return {"npf": npf, "static": static, "dynamic": dynamic}


def ablate_node_scaling(
    node_counts: Sequence[int] = (2, 4, 8, 16, 32),
    n_requests: int = 1000,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> AblationResult:
    """Scalability: does the thin storage server stay out of the way?

    §III-A: "When the number of storage nodes scales up, the storage
    server might become a performance bottleneck, we address this issue
    by simplifying the functionality of the storage server."  We scale
    the cluster while scaling the offered load with it (inter-arrival
    shrinks proportionally), so per-node load is constant; a scalable
    design keeps response time and savings flat.
    """
    specs = []
    for count in node_counts:
        half = max(1, count // 2)
        specs.append(
            JobSpec(
                label=f"nodes={count}",
                trace=TraceSpec(
                    workload=SyntheticWorkload(
                        n_requests=n_requests,
                        inter_arrival_s=0.700 * 8.0 / count,
                    ),
                    seed=1,
                ),
                config=EEVFSConfig(),
                cluster=default_cluster(n_type1=half, n_type2=count - half),
                seed=seed,
            )
        )
    comparisons = run_jobs(specs, jobs=jobs)
    return AblationResult(
        name="node scaling (constant per-node load)",
        x_label="storage_nodes",
        x_values=list(node_counts),
        comparisons=comparisons,
    )


def ablate_diurnal(
    n_requests: int = 1000,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> AblationResult:
    """Bursty (diurnal) vs constant arrivals at matched volume and span.

    Data-centre load is periodic; a policy that only works on smooth
    arrivals is useless.  Result: the look-ahead sleep policy extracts
    essentially the same savings from a 5x day/night swing as from a
    constant stream of equal volume -- window *totals*, not window
    arrangement, set the savings -- while bursts cost a little extra
    response time (queueing at the peaks).
    """
    from repro.traces.diurnal import DiurnalWorkload

    diurnal_workload = DiurnalWorkload(n_requests=n_requests)
    # Generate the diurnal trace here (cached, so a jobs=1 worker reuses
    # it) -- the constant comparator's inter-arrival is derived from it.
    diurnal_trace = cached_trace("diurnal", diurnal_workload, 4)
    mean_ia = diurnal_trace.duration_s / max(1, diurnal_trace.n_requests - 1)
    comparisons = run_jobs(
        [
            JobSpec(
                label="arrivals=diurnal",
                trace=TraceSpec(kind="diurnal", workload=diurnal_workload, seed=4),
                config=EEVFSConfig(),
                seed=seed,
            ),
            JobSpec(
                label="arrivals=constant",
                trace=TraceSpec(
                    workload=SyntheticWorkload(
                        n_requests=n_requests, inter_arrival_s=mean_ia
                    ),
                    seed=4,
                ),
                config=EEVFSConfig(),
                seed=seed,
            ),
        ],
        jobs=jobs,
    )
    return AblationResult(
        name="diurnal vs constant arrivals",
        x_label="arrival_pattern",
        x_values=["diurnal", "constant"],
        comparisons=comparisons,
    )


def ablate_replay_mode(
    modes: Sequence[str] = ("open", "paced", "closed"),
    n_requests: int = 500,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> Dict[str, PairedComparison]:
    """How the client replay discipline changes the headline numbers."""
    trace = _default_trace_spec(n_requests)
    comparisons = run_jobs(
        [
            JobSpec(
                label=f"replay_mode={mode}",
                trace=trace,
                config=EEVFSConfig(),
                seed=seed,
                replay_mode=mode,
            )
            for mode in modes
        ],
        jobs=jobs,
    )
    return dict(zip(modes, comparisons, strict=True))
