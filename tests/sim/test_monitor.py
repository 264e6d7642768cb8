"""Unit tests for the tally statistics collector."""

import math

import pytest

from repro.sim import TallyStat


class TestTallyStat:
    def test_empty_stats_are_nan(self):
        t = TallyStat()
        assert t.count == 0
        assert math.isnan(t.mean)
        assert math.isnan(t.std)
        assert math.isnan(t.minimum)
        assert math.isnan(t.maximum)

    def test_single_observation(self):
        t = TallyStat()
        t.record(5.0)
        assert t.count == 1
        assert t.mean == 5.0
        assert t.minimum == 5.0
        assert t.maximum == 5.0
        assert math.isnan(t.variance)

    def test_known_mean_and_variance(self):
        t = TallyStat()
        for value in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            t.record(value)
        assert t.mean == pytest.approx(5.0)
        # Unbiased sample variance of this classic dataset is 32/7.
        assert t.variance == pytest.approx(32.0 / 7.0)

    def test_total(self):
        t = TallyStat()
        for value in [1.0, 2.0, 3.0]:
            t.record(value)
        assert t.total == pytest.approx(6.0)

    def test_nan_rejected(self):
        t = TallyStat()
        with pytest.raises(ValueError):
            t.record(float("nan"))

    def test_percentile_requires_samples(self):
        t = TallyStat()
        t.record(1.0)
        with pytest.raises(RuntimeError):
            t.percentile(50)

    def test_percentiles(self):
        t = TallyStat(keep_samples=True)
        for value in [10.0, 20.0, 30.0, 40.0]:
            t.record(value)
        assert t.percentile(0) == 10.0
        assert t.percentile(100) == 40.0
        assert t.percentile(50) == pytest.approx(25.0)

    def test_percentile_range_checked(self):
        t = TallyStat(keep_samples=True)
        t.record(1.0)
        with pytest.raises(ValueError):
            t.percentile(101)

    def test_as_dict_round_trip(self):
        t = TallyStat(name="rt")
        for value in [1.0, 3.0]:
            t.record(value)
        d = t.as_dict()
        assert d["name"] == "rt"
        assert d["count"] == 2
        assert d["mean"] == pytest.approx(2.0)
