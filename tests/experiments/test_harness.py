"""Tests for the experiment harness (sweeps, figures, tables).

These run at a reduced request count (the harness's ``n_requests`` knob)
so the full suite stays fast; the benchmarks run the paper-scale version.
"""

import pytest

from repro.core.config import PARAMETER_GRID
from repro.experiments import (
    compared,
    figure3,
    figure4,
    figure5,
    figure6,
    figure6_study,
    group,
    run_study,
    sweep_study,
    table1,
    table2,
)
from repro.experiments.ablations import ablation_study, render_ablation
from repro.experiments.figures import render_figure6

N = 150  # requests per run in this module


@pytest.fixture(scope="module")
def sweeps():
    return run_study(sweep_study(n_requests=N))


class TestSweeps:
    def test_all_four_sweeps_present(self, sweeps):
        assert {sweep for sweep, _ in sweeps} == {
            "data_size",
            "mu",
            "inter_arrival",
            "prefetch_count",
        }

    def test_sweep_values_match_table2(self, sweeps):
        assert list(group(sweeps, "data_size")) == list(PARAMETER_GRID["data_size_mb"])
        assert list(group(sweeps, "mu")) == list(PARAMETER_GRID["mu"])
        assert list(group(sweeps, "inter_arrival")) == list(
            PARAMETER_GRID["inter_arrival_ms"]
        )
        assert list(group(sweeps, "prefetch_count")) == list(
            PARAMETER_GRID["prefetch_files"]
        )

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep_study(sweeps={"voltage": [1]})

    def test_custom_values(self):
        results = run_study(sweep_study(sweeps={"mu": [1, 1000]}, n_requests=60))
        assert list(group(results, "mu")) == [1, 1000]

    def test_each_point_is_a_valid_pair(self, sweeps):
        for runs in sweeps.values():
            assert runs["pf"].config.prefetch_enabled
            assert not runs["npf"].config.prefetch_enabled
            assert runs["pf"].requests_total == N


class TestFigure3:
    def test_panels_and_series(self, sweeps):
        fig = figure3(sweeps)
        assert set(fig.panels) == {"a", "b", "c", "d"}
        for panel in fig.panels.values():
            assert set(panel.series) == {"PF_energy_J", "NPF_energy_J", "savings_pct"}
            assert len(panel.x_values) == 4

    def test_prefetch_saves_energy_in_steady_panels(self, sweeps):
        """PF beats NPF at every point of the MU and K sweeps."""
        fig = figure3(sweeps)
        for letter in ("b", "d"):
            panel = fig.panel(letter)
            for pf, npf in zip(
                panel.series["PF_energy_J"], panel.series["NPF_energy_J"], strict=True
            ):
                assert pf < npf

    def test_savings_grow_with_prefetch_count(self, sweeps):
        """Fig. 3d's shape: more prefetched files, more savings."""
        savings = figure3(sweeps).panel("d").series["savings_pct"]
        assert savings == sorted(savings)

    def test_small_mu_saves_at_least_as_much(self, sweeps):
        """Fig. 3b's shape: MU<=100 saturates the savings."""
        savings = figure3(sweeps).panel("b").series["savings_pct"]
        assert min(savings[:3]) >= savings[3] - 0.5

    def test_render_is_printable(self, sweeps):
        text = figure3(sweeps).render()
        assert "Fig3(a)" in text and "savings_pct" in text


class TestFigure4:
    def test_npf_never_transitions(self, sweeps):
        fig = figure4(sweeps)
        for panel in fig.panels.values():
            assert all(v == 0 for v in panel.series["NPF_transitions"])

    def test_transitions_fall_with_prefetch_count(self, sweeps):
        """Fig. 4d's shape (K=10 is the worst case in the paper: 447)."""
        transitions = figure4(sweeps).panel("d").series["PF_transitions"]
        assert transitions[0] == max(transitions)
        assert transitions == sorted(transitions, reverse=True)

    def test_all_hit_regime_transitions_minimal(self, sweeps):
        """Fig. 4b: MU<=100 sleeps each disk exactly once."""
        transitions = figure4(sweeps).panel("b").series["PF_transitions"]
        assert transitions[0] == 16  # 16 data disks, one spin-down each
        assert transitions[3] > transitions[0]


class TestFigure5:
    def test_penalty_falls_with_prefetch_count(self, sweeps):
        penalties = figure5(sweeps).panel("d").series["penalty_pct"]
        assert penalties == sorted(penalties, reverse=True)

    def test_no_penalty_in_all_hit_regime(self, sweeps):
        penalties = figure5(sweeps).panel("b").series["penalty_pct"]
        for value in penalties[:3]:
            assert abs(value) < 2.0

    def test_pf_response_at_least_npf(self, sweeps):
        panel = figure5(sweeps).panel("d")
        for pf, npf in zip(
            panel.series["PF_response_s"], panel.series["NPF_response_s"], strict=True
        ):
            assert pf >= npf * 0.99


class TestFigure6:
    def test_berkeley_savings_in_paper_band(self):
        fig6 = figure6(run_study(figure6_study(n_requests=N)))
        assert 10.0 < fig6.energy_savings_pct < 20.0  # paper: 17 %
        assert fig6.pf.buffer_hit_rate == 1.0

    def test_render(self):
        fig6 = figure6(run_study(figure6_study(n_requests=60)))
        assert "Berkeley" in render_figure6(fig6)


class TestTables:
    def test_table1_carries_testbed_parameters(self):
        text = table1()
        for fragment in ("1000", "100", "58", "34", "120", "80"):
            assert fragment in text

    def test_table2_matches_grid(self):
        text = table2()
        assert "1, 10, 25, 50" in text
        assert "0, 350, 700, 1000" in text
        assert "10, 40, 70, 100" in text


def _ablate(name, **kwargs):
    """``(x -> comparison, rendered table)`` of one ablation."""
    results = run_study(ablation_study(name, **kwargs))
    return compared(group(results, name)), render_ablation(name, results)


class TestAblations:
    def test_idle_threshold_sweep(self):
        comparisons, table = _ablate("idle_threshold", values=(2.0, 5.0), n_requests=80)
        assert list(comparisons) == [2.0, 5.0]
        assert "threshold" in table

    def test_hints_ablation(self):
        comparisons, _ = _ablate("hints", n_requests=80)
        assert list(comparisons) == ["with", "without"]

    def test_disks_per_node(self):
        comparisons, _ = _ablate("disks_per_node", values=(1, 2), n_requests=80)
        assert len(comparisons) == 2

    def test_window_predictor(self):
        comparisons, _ = _ablate("window_predictor", n_requests=80)
        assert list(comparisons) == ["sequence", "time"]

    def test_replay_modes(self):
        comparisons, _ = _ablate("replay_mode", values=("open", "paced"), n_requests=60)
        assert set(comparisons) == {"open", "paced"}
        for comparison in comparisons.values():
            assert comparison.pf.requests_total == 60
