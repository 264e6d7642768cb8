#!/usr/bin/env python3
"""Scenario: how much do the calibrated power numbers matter?

The paper never publishes its drives' power figures; DESIGN.md documents
the calibration this reproduction chose.  This study shows the analysis
toolkit earning its keep:

1. the closed-form energy model predicting the simulator's totals,
2. the savings grid under power-model perturbation,
3. the M/G/1 check on a single disk's response time.

Run:  python examples/calibration_study.py
"""

import numpy as np

from repro import EEVFSConfig, default_cluster, run_eevfs
from repro.analysis import (
    mg1_mean_response_s,
    predicted_npf_energy_j,
    predicted_pf_energy_j,
)
from repro.analysis.energymodel import observed_sleep_fraction
from repro.analysis.queueing import deterministic_second_moment
from repro.experiments.sensitivity import (
    power_model_sensitivity,
    render_sensitivity,
)
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


def main() -> None:
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=600), rng=np.random.default_rng(1)
    )
    cluster = default_cluster()

    print("--- 1. closed-form energy vs simulator ---")
    npf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))
    pf = run_eevfs(trace, EEVFSConfig())
    predicted_npf = predicted_npf_energy_j(cluster, trace, duration_s=npf.duration_s)
    predicted_pf = predicted_pf_energy_j(
        cluster,
        trace,
        hit_rate=pf.buffer_hit_rate,
        sleep_fraction=observed_sleep_fraction(pf),
        transitions_per_disk=pf.transitions / cluster.n_data_disks,
        duration_s=pf.duration_s,
    )
    for label, measured, predicted in (
        ("NPF", npf.energy_j, predicted_npf.total_j),
        ("PF", pf.energy_j, predicted_pf.total_j),
    ):
        error = 100 * (predicted / measured - 1)
        print(
            f"{label:4s} measured {measured / 1e5:.3f}e5 J, "
            f"predicted {predicted / 1e5:.3f}e5 J ({error:+.1f} %)"
        )

    print("\n--- 2. conclusions vs calibration (savings %, perturbed grid) ---")
    grid = power_model_sensitivity(n_requests=600)  # over the seed-1 trace above
    print(render_sensitivity(grid))
    print(
        "PF wins on the whole grid: the headline conclusion does not "
        "hinge on the\ncalibrated watts, only its magnitude does."
    )

    print("\n--- 3. M/G/1 sanity check on one disk ---")
    from repro.disk import ATA_80GB_TYPE1, SimDisk
    from repro.sim import Simulator

    size = 8 * 1024 * 1024
    service = ATA_80GB_TYPE1.positioning_s + size / ATA_80GB_TYPE1.bandwidth_bps
    rate = 0.5 / service  # rho = 0.5
    sim = Simulator()
    disk = SimDisk(sim, ATA_80GB_TYPE1)
    responses = []
    gaps = iter(np.random.default_rng(7).exponential(1.0 / rate, size=3000))

    def arrive(_value=None):
        # Submit one request, note its response time when it is done,
        # and sleep until the next arrival.
        issued = sim.now
        done = disk.submit(size).done
        done.callbacks.append(lambda _event: responses.append(sim.now - issued))
        gap = next(gaps, None)
        if gap is not None:
            sim.call_later(gap, arrive)

    sim.call_later(next(gaps), arrive)
    sim.run()
    measured = float(np.mean(responses))
    expected = mg1_mean_response_s(rate, service, deterministic_second_moment(service))
    print(
        f"rho=0.5 M/D/1: measured {measured * 1000:.1f} ms, "
        f"Pollaczek-Khinchine {expected * 1000:.1f} ms "
        f"({100 * (measured / expected - 1):+.1f} %)"
    )


if __name__ == "__main__":
    main()
