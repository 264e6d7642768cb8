"""Fig. 4 regeneration: total power-state transitions, four panels.

Shape claims reproduced: near-zero transitions in the all-hit regimes
(small MU, large K), K=10 as the global worst case, NPF at zero.  Known
deviation (documented in EXPERIMENTS.md): the paper reports transitions
*decreasing* with data size and inter-arrival delay, where our policy
holds them roughly constant -- one sleep cycle per buffer miss.
"""

from conftest import series, sweep_cached

from repro.metrics.report import format_series


def _print_panel(letter, x_label, points):
    print()
    print(
        format_series(
            x_label,
            list(points),
            {
                "PF_transitions": series(points, lambda c: float(c.pf.transitions)),
                "NPF_transitions": series(points, lambda c: float(c.npf.transitions)),
            },
            title=f"Fig4({letter})",
        )
    )


def test_fig4a_data_size(benchmark):
    points = benchmark.pedantic(
        lambda: sweep_cached("data_size"), rounds=1, iterations=1
    )
    _print_panel("a", "Data Size (MB)", points)
    transitions = series(points, lambda c: c.pf.transitions)
    assert all(t > 0 for t in transitions)
    assert all(c.npf.transitions == 0 for c in points.values())
    # Transition count stays within the paper's order of magnitude band.
    assert all(50 <= t <= 1500 for t in transitions)


def test_fig4b_mu(benchmark):
    points = benchmark.pedantic(lambda: sweep_cached("mu"), rounds=1, iterations=1)
    _print_panel("b", "MU", points)
    transitions = series(points, lambda c: c.pf.transitions)
    # Paper: MU <= 100 transitions the disks once at the start and never
    # again (log-scale panel bottoming out).
    assert transitions[0] == transitions[1] == transitions[2]
    assert transitions[3] > 5 * transitions[0]


def test_fig4c_interarrival(benchmark):
    points = benchmark.pedantic(
        lambda: sweep_cached("inter_arrival"), rounds=1, iterations=1
    )
    _print_panel("c", "Inter-arrival delay (ms)", points)
    transitions = series(points, lambda c: c.pf.transitions)
    assert all(t >= 0 for t in transitions)
    # All loaded points stay in one band (no runaway thrash).
    assert max(transitions) <= 4 * max(1, min(t for t in transitions if t > 0))


def test_fig4d_prefetch_count(benchmark):
    points = benchmark.pedantic(
        lambda: sweep_cached("prefetch_count"), rounds=1, iterations=1
    )
    _print_panel("d", "# of files to prefetch", points)
    transitions = series(points, lambda c: c.pf.transitions)
    # Paper: K=10 is the maximum across ALL experiments (447 on the
    # testbed); monotone decrease with K.
    assert transitions == sorted(transitions, reverse=True)
    assert transitions[0] >= 2 * transitions[2]
    # §VI-B's trade-off: the K=10 point pays the most transitions for the
    # least savings.
    savings = series(points, lambda c: c.energy_savings_pct)
    assert savings[0] == min(savings)
