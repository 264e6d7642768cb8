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

Every ablation but E3 is one row of :data:`ABLATIONS`: a PF/NPF pair per
x value.  :func:`ablation_study` turns a row into study points keyed
``(name, x)``, and :func:`render_ablation` prints its table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ClusterSpec, default_cluster, EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.experiments.study import compared, group, pair, Results, Study
from repro.metrics.report import format_series
from repro.parallel import JobSpec, TraceSpec
from repro.traces.cache import cached_trace
from repro.traces.synthetic import SyntheticWorkload


@dataclass(frozen=True)
class Ablation:
    """One ablation: its title and x axis, the default x values, and the
    job of each x (``spec(x, n_requests)``; its config is the PF side).

    ``count`` formats the PF transitions column: the replay-mode table
    has always printed whole counts, the others floats.
    """

    title: str
    x_label: str
    values: Tuple[object, ...]
    spec: Callable[[object, int], JobSpec]
    count: Callable[[int], object] = float


def _synthetic(
    n_requests: int,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    **kwargs: object,
) -> JobSpec:
    """A job over the default synthetic trace (rng seed 1)."""
    trace = TraceSpec(workload=SyntheticWorkload(n_requests=n_requests))
    return JobSpec(trace=trace, config=config, cluster=cluster, **kwargs)


def _node_scaling(count: object, n_requests: int) -> JobSpec:
    """§III-A: "When the number of storage nodes scales up, the storage
    server might become a performance bottleneck, we address this issue
    by simplifying the functionality of the storage server."  The offered
    load scales with the cluster (inter-arrival shrinks proportionally),
    so per-node load is constant; a scalable design keeps response time
    and savings flat."""
    half = max(1, int(count) // 2)
    workload = SyntheticWorkload(
        n_requests=n_requests, inter_arrival_s=0.700 * 8.0 / int(count)
    )
    return JobSpec(
        trace=TraceSpec(workload=workload),
        cluster=default_cluster(n_type1=half, n_type2=int(count) - half),
    )


def _arrivals(pattern: object, n_requests: int) -> JobSpec:
    """Bursty (diurnal) vs constant arrivals at matched volume and span.

    Data-centre load is periodic; a policy that only works on smooth
    arrivals is useless.  Result: the look-ahead sleep policy extracts
    essentially the same savings from a 5x day/night swing as from a
    constant stream of equal volume -- window *totals*, not window
    arrangement, set the savings -- while bursts cost a little extra
    response time (queueing at the peaks).
    """
    from repro.traces.diurnal import DiurnalWorkload

    diurnal = DiurnalWorkload(n_requests=n_requests)
    if pattern == "diurnal":
        return JobSpec(trace=TraceSpec(workload=diurnal, seed=4))
    # The constant comparator's inter-arrival is the diurnal trace's mean
    # (cached, so an in-process diurnal job reuses the generated trace).
    trace = cached_trace(diurnal, 4)
    mean_ia = trace.duration_s / max(1, trace.n_requests - 1)
    workload = SyntheticWorkload(n_requests=n_requests, inter_arrival_s=mean_ia)
    return JobSpec(trace=TraceSpec(workload=workload, seed=4))


#: Ablation name -> its row.
ABLATIONS: Dict[str, Ablation] = {
    # The disk idle threshold around the paper's 5 s.
    "idle_threshold": Ablation(
        "idle threshold",
        "threshold_s",
        (1.0, 2.0, 5.0, 10.0, 30.0),
        lambda t, n: _synthetic(n, EEVFSConfig(idle_threshold_s=t)),
    ),
    # Hints + wake-ahead vs pure idle timers (§IV-C's two modes).
    "hints": Ablation(
        "application hints",
        "hints",
        ("with", "without"),
        lambda hints, n: _synthetic(
            n,
            EEVFSConfig() if hints == "with" else EEVFSConfig(use_hints=False, wake_ahead=False),
        ),
    ),
    # §VII: does adding data disks per node increase savings?
    "disks_per_node": Ablation(
        "data disks per node",
        "disks_per_node",
        (1, 2, 4, 8),
        lambda count, n: _synthetic(n, cluster=default_cluster(data_disks_per_node=count)),
    ),
    # Sequence (drift-robust) vs time (timestamp-trusting) prediction.
    "window_predictor": Ablation(
        "window predictor",
        "predictor",
        ("sequence", "time"),
        lambda predictor, n: _synthetic(n, EEVFSConfig(window_predictor=predictor)),
    ),
    # §VII future work: striping vs energy savings, on 4 data disks per
    # node so width-4 stripes exist; quantifies the performance-vs-savings
    # tension (every miss wakes all stripe disks).
    "striping": Ablation(
        "striping (§VII)",
        "stripe_width",
        (1, 2, 4),
        lambda width, n: _synthetic(
            n, EEVFSConfig(stripe_width=width), default_cluster(data_disks_per_node=4)
        ),
    ),
    # Round-robin (§III-B) vs bandwidth-weighted placement.  On the
    # heterogeneous Table-I testbed, weighting placement by NIC rate routes
    # most traffic through gigabit nodes -- a response-time win the
    # paper's hardware-oblivious policy leaves on the table.
    "placement": Ablation(
        "placement policy",
        "policy",
        ("round_robin", "bandwidth_weighted"),
        lambda policy, n: _synthetic(n, EEVFSConfig(placement_policy=policy)),
    ),
    "node_scaling": Ablation(
        "node scaling (constant per-node load)",
        "storage_nodes",
        (2, 4, 8, 16, 32),
        _node_scaling,
    ),
    "diurnal": Ablation(
        "diurnal vs constant arrivals",
        "arrival_pattern",
        ("diurnal", "constant"),
        _arrivals,
    ),
    # How the client replay discipline changes the headline numbers.
    "replay_mode": Ablation(
        "client replay discipline",
        "replay_mode",
        ("open", "paced", "closed"),
        lambda mode, n: _synthetic(n, replay_mode=mode),
        count=int,
    ),
}


def ablation_study(
    name: str,
    n_requests: int = 1000,
    seed: int = 0,
    values: Optional[Sequence[object]] = None,
) -> Study:
    """One PF/NPF pair per x value of ablation *name*, keyed ``(name, x)``
    (default: the row's own x values)."""
    ablation = ABLATIONS[name]
    return {
        (name, x): pair(replace(ablation.spec(x, n_requests), seed=seed))
        for x in (ablation.values if values is None else values)
    }


def render_ablation(name: str, results: Results) -> str:
    """Ablation *name*'s table: savings, PF transitions and penalty per x."""
    ablation = ABLATIONS[name]
    comparisons = compared(group(results, name))
    return format_series(
        ablation.x_label,
        list(comparisons),
        {
            "savings_pct": [c.energy_savings_pct for c in comparisons.values()],
            "PF_transitions": [ablation.count(c.pf.transitions) for c in comparisons.values()],
            "penalty_pct": [c.response_penalty_pct for c in comparisons.values()],
        },
        title=f"=== Ablation: {ablation.title} ===",
    )


def ablate_dynamic_prefetch(
    n_requests: int = 1000,
    seed: int = 0,
) -> Dict[str, object]:
    """E3: static vs dynamic prefetching on a drifting workload.

    Both policies get the same limited history (the trace's first 15 %);
    the dynamic policy then re-prefetches from the live request log every
    30 s over a 60 s popularity window, with no drift gate.  Returns the
    three runs.  They replay with ``history=``, which no job carries, so
    they run here rather than as a study.
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
