"""Tests for multi-seed repetition statistics."""

import math

import pytest

from repro.experiments.repetition import repeat_pair, RepeatedMetric, t_critical_95
from repro.traces.synthetic import SyntheticWorkload


class TestTCritical:
    def test_known_values(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(10) == pytest.approx(2.228)
        assert t_critical_95(1000) == pytest.approx(1.96)

    def test_interpolation_is_conservative(self):
        # df=22 not in the table: uses the next tabulated df (25) -> 2.060.
        assert t_critical_95(22) == pytest.approx(2.060)

    def test_validation(self):
        with pytest.raises(ValueError):
            t_critical_95(0)


class TestRepeatedMetric:
    def test_single_sample(self):
        m = RepeatedMetric("x", (5.0,))
        assert m.mean == 5.0
        assert math.isnan(m.ci95_halfwidth)
        assert "n=1" in str(m)

    def test_known_ci(self):
        m = RepeatedMetric("x", (1.0, 2.0, 3.0))
        assert m.mean == pytest.approx(2.0)
        assert m.std == pytest.approx(1.0)
        assert m.ci95_halfwidth == pytest.approx(4.303 / math.sqrt(3))


class TestRepeatPair:
    @pytest.fixture(scope="class")
    def result(self):
        return repeat_pair(
            workload=SyntheticWorkload(n_requests=150),
            seeds=(0, 1, 2),
        )

    def test_sample_counts(self, result):
        assert result.savings_pct.n == 3
        assert len(result.comparisons) == 3

    def test_savings_stable_across_seeds(self, result):
        """The headline metric must be robust, not a lucky draw: every
        seed lands in the paper's band and the CI is narrow."""
        for value in result.savings_pct.samples:
            assert 5.0 < value < 20.0
        assert result.savings_pct.ci95_halfwidth < 5.0

    def test_render(self, result):
        text = result.render()
        assert "95 % CI" in text
        assert "energy savings" in text

    def test_fixed_trace_mode_isolates_simulation_jitter(self):
        result = repeat_pair(
            workload=SyntheticWorkload(n_requests=100),
            seeds=(0, 1),
            vary_trace=False,
        )
        # Same trace, different spin-up jitter: savings differ only a little.
        a, b = result.savings_pct.samples
        assert abs(a - b) < 2.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            repeat_pair(seeds=())
