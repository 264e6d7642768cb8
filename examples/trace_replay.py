#!/usr/bin/env python3
"""Scenario: operating from logs -- trace files and stale popularity.

The paper's prototype derives popularity from the very trace it replays
(an oracle).  Operationally, placement and prefetch decisions come from
*yesterday's* access log.  This example:

1. writes today's workload to a trace file and reads it back (the
   persistent log format),
2. replays it with oracle popularity vs popularity from an older trace,
3. reports how much of the savings survives stale knowledge.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import EEVFSCluster, EEVFSConfig, run_eevfs
from repro.metrics import format_table
from repro.traces import generate_synthetic_trace, read_trace, write_trace
from repro.traces.synthetic import SyntheticWorkload


def main() -> None:
    workload = SyntheticWorkload(n_requests=600)
    today = generate_synthetic_trace(workload, rng=np.random.default_rng(10))
    yesterday = generate_synthetic_trace(workload, rng=np.random.default_rng(20))

    # 1. Round-trip through the on-disk trace format.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "today.trace"
        write_trace(today, path)
        replayed = read_trace(path)
        print(
            f"trace file round trip: {path.name}, "
            f"{replayed.n_requests} requests, {path.stat().st_size} bytes"
        )

    # 2. Oracle vs stale popularity vs no prefetch at all.
    # A run takes its popularity from the replayed trace itself unless
    # given a history trace over the same catalog.
    config = EEVFSConfig(prefetch_files=70)
    oracle = run_eevfs(replayed, config)
    stale = EEVFSCluster(config=config).run(replayed, history=yesterday)
    npf = run_eevfs(replayed, EEVFSConfig().as_npf())

    rows = [
        ["oracle (paper's method)", oracle.energy_j, oracle.buffer_hit_rate],
        ["stale (yesterday's log)", stale.energy_j, stale.buffer_hit_rate],
        ["no prefetch (NPF)", npf.energy_j, npf.buffer_hit_rate],
    ]
    print()
    print(format_table(["popularity source", "energy_J", "hit_rate"], rows))

    oracle_savings = 100 * (1 - oracle.energy_j / npf.energy_j)
    stale_savings = 100 * (1 - stale.energy_j / npf.energy_j)
    print(f"\noracle savings {oracle_savings:.1f} %, stale savings {stale_savings:.1f} %")
    if oracle_savings > 0:
        print(
            f"stale knowledge retains {100 * stale_savings / oracle_savings:.0f} % "
            "of the achievable savings"
        )


if __name__ == "__main__":
    main()
