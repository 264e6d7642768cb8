"""Ablation benches: the design choices DESIGN.md calls out.

A1 idle threshold; A2 application hints; A3 disks per node (the §VII
conjecture); A4 window predictor; A5 client replay discipline.
"""

from pathlib import Path
import runpy

from conftest import N_REQUESTS

from repro.experiments.ablations import ablation_study, render_ablation
from repro.experiments.study import compared, group, run_study
from repro.metrics.report import format_table


def _ablate(benchmark, name, **kwargs):
    """Run one ablation at benchmark scale, print its table, and return
    its comparisons in x order."""
    kwargs.setdefault("n_requests", N_REQUESTS)
    results = benchmark.pedantic(
        lambda: run_study(ablation_study(name, **kwargs)), rounds=1, iterations=1
    )
    print()
    print(render_ablation(name, results))
    return compared(group(results, name))


def test_idle_threshold(benchmark):
    comparisons = _ablate(benchmark, "idle_threshold")
    savings = [c.energy_savings_pct for c in comparisons.values()]
    # Sleeping pays at every threshold tried; very large thresholds
    # forgo savings relative to the paper's 5 s operating point.
    paper_point = list(comparisons).index(5.0)
    assert all(s > 0 for s in savings)
    assert savings[-1] <= savings[paper_point] + 0.5


def test_application_hints(benchmark):
    with_hints, without = _ablate(benchmark, "hints").values()
    # §IV-C: EEVFS works without hints, but hints buy response time --
    # predictive wake-ups beat raw idle timers by a wide margin.
    assert without.energy_savings_pct > 0
    assert with_hints.response_penalty_pct < without.response_penalty_pct / 2
    # Energy is a near wash: timers sleep 5 s later per window but never
    # wake early; hints sleep sooner but pre-spin disks.  Both land in
    # the same savings band (measured: ~11 +/- 1.5 points).
    assert abs(with_hints.energy_savings_pct - without.energy_savings_pct) < 3.0


def test_disks_per_node(benchmark):
    comparisons = _ablate(benchmark, "disks_per_node")
    savings = [c.energy_savings_pct for c in comparisons.values()]
    # §VII: "We believe this number will increase as more disks are added
    # to each EEVFS storage node."  Confirmed: monotone in disk count.
    assert savings == sorted(savings)
    assert savings[-1] > savings[0] * 1.5


def test_striping(benchmark):
    comparisons = _ablate(benchmark, "striping")
    savings = [c.energy_savings_pct for c in comparisons.values()]
    npf_response = [c.npf.mean_response_s for c in comparisons.values()]
    # §VII's hoped-for performance gain is real (NPF responses fall with
    # width) ...
    assert npf_response == sorted(npf_response, reverse=True)
    # ... but "while still maintaining energy savings" only partially
    # holds: savings shrink with width (every miss wakes all stripes).
    assert savings == sorted(savings, reverse=True)
    assert savings[-1] > 0  # still saves at width 4


def test_window_predictor(benchmark):
    sequence, time_based = _ablate(benchmark, "window_predictor").values()
    # Both predictors save energy at the default (unsaturated) point.
    assert sequence.energy_savings_pct > 5.0
    assert time_based.energy_savings_pct > 5.0


def test_placement_policy(benchmark):
    round_robin, weighted = _ablate(benchmark, "placement").values()
    # Bandwidth-weighted placement must cut response times on the
    # heterogeneous testbed without giving up energy savings.
    assert weighted.pf.mean_response_s < 0.8 * round_robin.pf.mean_response_s
    assert weighted.energy_savings_pct > round_robin.energy_savings_pct - 1.0


def test_node_scaling(benchmark):
    comparisons = _ablate(benchmark, "node_scaling", values=(2, 4, 8, 16))
    savings = [c.energy_savings_pct for c in comparisons.values()]
    responses = [c.pf.mean_response_s for c in comparisons.values()]
    # §III-A scalability: at constant per-node load, savings and response
    # stay flat as the cluster grows (the thin server never bottlenecks).
    assert max(savings) - min(savings) < 4.0
    assert max(responses) < 2.0 * min(responses)


def test_diurnal_arrivals(benchmark):
    diurnal, constant = _ablate(benchmark, "diurnal").values()
    # Matched volume: the look-ahead policy is burstiness-insensitive on
    # energy (within ~2 points) ...
    assert abs(diurnal.energy_savings_pct - constant.energy_savings_pct) < 2.0
    assert diurnal.energy_savings_pct > 5.0
    # ... and bursts cost at most a modest response-time premium.
    assert diurnal.pf.mean_response_s < 1.5 * constant.pf.mean_response_s


def test_dynamic_prefetch_under_drift(benchmark):
    """E3: the three 1,000-request runs of examples/dynamic_prefetching.py."""
    example = runpy.run_path(
        str(Path(__file__).parent.parent / "examples" / "dynamic_prefetching.py")
    )
    out = benchmark.pedantic(
        lambda: example["runs"](example["drifting_trace"]()), rounds=1, iterations=1
    )
    rows = [
        [name, r.energy_j, r.buffer_hit_rate, r.mean_response_s, r.prefetch_files_copied]
        for name, r in out.items()
    ]
    print()
    print(
        format_table(
            ["policy", "energy_J", "hit_rate", "response_s", "files_copied"],
            rows,
            title="Ablation: dynamic re-prefetching on a drifting workload",
        )
    )
    npf, static, dynamic = out["npf"], out["static"], out["dynamic"]
    # Static prefetching decays as the hot set drifts away from the
    # history it was planned on; dynamic tracking recovers the hit rate.
    assert dynamic.buffer_hit_rate > 1.5 * static.buffer_hit_rate
    # Both still beat NPF on energy.
    assert static.energy_j < npf.energy_j
    assert dynamic.energy_j < npf.energy_j


def test_power_model_sensitivity(benchmark):
    """The reproduction's conclusions must not hinge on the calibration
    DESIGN.md chose for the unpublished power figures."""
    from repro.experiments.sensitivity import (
        power_model_sensitivity,
        render_sensitivity,
    )

    grid = benchmark.pedantic(
        lambda: power_model_sensitivity(n_requests=min(N_REQUESTS, 500)),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_sensitivity(grid))
    # PF wins everywhere on the +/-50 % base, +/-30 % disk grid, and the
    # band stays in single-digit-to-twenties territory.
    assert all(3.0 < value < 30.0 for value in grid.values())
    # The nominal calibration sits inside the paper's 11-17 % band.
    assert 9.0 <= grid[(1.0, 1.0)] <= 17.0


def test_replay_modes(benchmark):
    comparisons = _ablate(benchmark, "replay_mode", n_requests=min(N_REQUESTS, 500))
    # Prefetching saves energy under every replay discipline.
    for comparison in comparisons.values():
        assert comparison.energy_savings_pct > 0
