#!/usr/bin/env python3
"""Scenario: popularity drift and dynamic re-prefetching.

The paper prefetches once, before the run, from a popularity log -- fine
while the hot set is stable.  This example builds a *drifting* workload
(the hotspot moves ~350 files over the run), shows static prefetching
decaying, and turns on the PRE-BUD-style dynamic re-prefetcher to track
the hot set -- including what the tracking costs in copy traffic and
drive wear.  Setting `popularity_window_s` starts the replan loop in
oracle mode: every `online_replan_epoch_s` it ranks the last
`popularity_window_s` seconds of requests, and with
`online_drift_threshold=0` it replaces the buffer contents every epoch.

This is E3 of EXPERIMENTS.md; `runs()` returns its three runs.

Run:  python examples/dynamic_prefetching.py
"""

from typing import Dict

import numpy as np

from repro import default_cluster, EEVFSConfig
from repro.core.filesystem import EEVFSCluster, RunResult
from repro.metrics import format_table
from repro.metrics.wear import wear_report
from repro.traces.model import Trace
from repro.traces.nonstationary import (
    DriftingWorkload,
    generate_drifting_trace,
    hot_set_displacement,
)

WORKLOAD = DriftingWorkload(n_requests=1000)
#: The head of the trace the operator knew before the run.
HISTORY_REQUESTS = 150


def drifting_trace() -> Trace:
    """The drifting trace E3 replays (rng seed 3)."""
    return generate_drifting_trace(WORKLOAD, rng=np.random.default_rng(3))


def runs(trace: Trace) -> Dict[str, RunResult]:
    """NPF, static prefetch and dynamic re-prefetch over *trace*, each
    planned from the same history."""
    history = trace.head(HISTORY_REQUESTS)

    def run(config):
        return EEVFSCluster(config=config).run(trace, history=history)

    return {
        "npf": run(EEVFSConfig(prefetch_enabled=False)),
        "static": run(EEVFSConfig()),
        "dynamic": run(
            EEVFSConfig(
                popularity_window_s=60.0,
                online_replan_epoch_s=30.0,
                online_drift_threshold=0.0,
            )
        ),
    }


def main() -> None:
    trace = drifting_trace()
    print(
        f"hotspot moves {hot_set_displacement(WORKLOAD):.0f} files over the "
        f"{trace.duration_s:.0f} s run; popularity snapshot taken from the "
        f"first {HISTORY_REQUESTS} requests"
    )
    results = runs(trace)
    npf, static, dynamic = results["npf"], results["static"], results["dynamic"]

    rows = []
    for name, result in (
        ("NPF", npf),
        ("static prefetch", static),
        ("dynamic re-prefetch", dynamic),
    ):
        report = wear_report(result, default_cluster())
        worst_years = (
            report.worst.years_to_limit if report.worst is not None else float("inf")
        )
        rows.append(
            [
                name,
                result.energy_j,
                result.buffer_hit_rate,
                result.mean_response_s,
                result.prefetch_files_copied,
                worst_years,
            ]
        )
    print()
    print(
        format_table(
            [
                "policy",
                "energy_J",
                "hit_rate",
                "response_s",
                "files_copied",
                "worst_disk_years",
            ],
            rows,
        )
    )

    savings_static = 100 * (1 - static.energy_j / npf.energy_j)
    savings_dynamic = 100 * (1 - dynamic.energy_j / npf.energy_j)
    print(
        f"\nstatic prefetching decays to {static.buffer_hit_rate:.0%} hits "
        f"({savings_static:.1f} % savings); dynamic tracking holds "
        f"{dynamic.buffer_hit_rate:.0%} ({savings_dynamic:.1f} %) at the cost of "
        f"{dynamic.prefetch_files_copied - static.prefetch_files_copied} extra "
        "buffer copies"
    )


if __name__ == "__main__":
    main()
