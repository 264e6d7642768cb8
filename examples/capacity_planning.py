#!/usr/bin/env python3
"""Scenario: capacity planning -- where does EEVFS pay off?

§VII conjectures that savings "will increase as more disks are added to
each EEVFS storage node" (the authors could not test it on their
hardware; we can).  This example sweeps data disks per node and prefetch
depth K, mapping the savings / response-penalty frontier an operator
would use to size a deployment.

Run:  python examples/capacity_planning.py
"""

import numpy as np

from repro import EEVFSConfig, default_cluster
from repro.experiments.study import run_pair
from repro.metrics import format_table
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


def main() -> None:
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=600), rng=np.random.default_rng(1)
    )

    print("--- §VII conjecture: savings vs data disks per node ---")
    rows = []
    for disks in (1, 2, 4, 8):
        cluster = default_cluster(data_disks_per_node=disks)
        comparison = run_pair(trace, config=EEVFSConfig(), cluster=cluster)
        rows.append(
            [
                disks,
                comparison.energy_savings_pct,
                comparison.pf.transitions,
                comparison.response_penalty_pct,
            ]
        )
    print(
        format_table(
            ["disks/node", "savings_pct", "transitions", "penalty_pct"], rows
        )
    )

    print("\n--- prefetch depth K: savings vs buffer investment ---")
    rows = []
    for k in (10, 40, 70, 100, 150):
        comparison = run_pair(trace, config=EEVFSConfig(prefetch_files=k))
        rows.append(
            [
                k,
                comparison.pf.prefetch_bytes_copied / 2**20,
                comparison.energy_savings_pct,
                comparison.response_penalty_pct,
                comparison.savings_per_transition_j,
            ]
        )
    print(
        format_table(
            [
                "K",
                "copied_MiB",
                "savings_pct",
                "penalty_pct",
                "J_saved_per_transition",
            ],
            rows,
        )
    )
    print(
        "\nNote the J-saved-per-transition column: §VI-B's wear argument --"
        "\nsmall K buys little energy at a high spin-up cost per joule."
    )


if __name__ == "__main__":
    main()
