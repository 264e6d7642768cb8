"""Tests for the crossover/boundary finders."""

import numpy as np
import pytest

from repro.experiments.crossover import (
    find_min_effective_k,
    find_savings_floor_inter_arrival,
)
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=250), rng=np.random.default_rng(1)
    )


class TestMinEffectiveK:
    def test_finds_a_threshold(self, trace):
        result = find_min_effective_k(8.0, trace=trace, k_max=150)
        assert result.found
        assert 0 < result.value <= 150

    def test_threshold_is_minimal(self, trace):
        """K*-1 must miss the target while K* clears it."""
        result = find_min_effective_k(8.0, trace=trace, k_max=150)
        k_star = int(result.value)
        from repro.core import EEVFSConfig
        from repro.experiments.study import run_pair

        at = run_pair(trace, config=EEVFSConfig(prefetch_files=k_star))
        below = run_pair(trace, config=EEVFSConfig(prefetch_files=k_star - 1))
        assert at.energy_savings_pct >= 8.0
        assert below.energy_savings_pct < 8.0

    def test_unreachable_target_returns_none(self, trace):
        result = find_min_effective_k(90.0, trace=trace, k_max=120)
        assert not result.found
        assert result.value is None

    def test_bisection_is_cheap(self, trace):
        """log2(k_max) + 1-ish evaluations, not a linear scan."""
        result = find_min_effective_k(8.0, trace=trace, k_max=128)
        assert len(result.evaluations) <= 10

    def test_higher_target_needs_larger_k(self, trace):
        low = find_min_effective_k(5.0, trace=trace, k_max=200)
        high = find_min_effective_k(12.0, trace=trace, k_max=200)
        if low.found and high.found:
            assert high.value >= low.value

    def test_validation(self, trace):
        with pytest.raises(ValueError):
            find_min_effective_k(0.0, trace=trace)


class TestSavingsFloorInterArrival:
    def test_finds_floor_on_grid(self):
        result = find_savings_floor_inter_arrival(
            min_savings_pct=5.0,
            n_requests=200,
            ia_grid_ms=(0, 350, 700),
        )
        assert result.found
        assert result.value in (0.0, 350.0, 700.0)
        # Every lighter point was evaluated on the way.
        assert result.evaluations[result.value] >= 5.0

    def test_impossible_floor_returns_none(self):
        result = find_savings_floor_inter_arrival(
            min_savings_pct=80.0,
            n_requests=150,
            ia_grid_ms=(350, 700),
        )
        assert not result.found
        assert set(result.evaluations) == {350, 700}
