"""Unit tests for telemetry instruments (repro.obs.telemetry)."""

import pickle

import pytest

from repro.obs import Series, TelemetryRegistry


class TestSeries:
    def test_append_and_last(self):
        series = Series("queue_depth")
        assert len(series) == 0
        assert series.last() is None
        series.append(0.0, 2.0)
        series.append(1.0, 4.0)
        assert len(series) == 2
        assert series.last() == (1.0, 4.0)
        assert series.mean() == 3.0

    def test_mean_of_empty_is_zero(self):
        assert Series("x").mean() == 0.0

    def test_picklable(self):
        series = Series("x")
        series.append(0.5, 1.5)
        clone = pickle.loads(pickle.dumps(series))
        assert clone.name == "x"
        assert list(clone.times) == [0.5]
        assert list(clone.values) == [1.5]


class TestRegistry:
    def test_sample_appends_counters_and_gauges(self):
        # Gauges are the registry's one instrument: a running total is
        # a gauge over the model's own counter.
        registry = TelemetryRegistry()
        hits = [0]
        depth = [3]
        registry.gauge("hits", lambda: hits[0])
        registry.gauge("depth", lambda: depth[0])
        registry.sample(0.0)
        hits[0] += 5
        depth[0] = 7
        registry.sample(1.0)
        assert list(registry.series["hits"].values) == [0.0, 5.0]
        assert list(registry.series["depth"].values) == [3.0, 7.0]
        assert list(registry.series["depth"].times) == [0.0, 1.0]

    def test_name_collision_across_kinds_rejected(self):
        registry = TelemetryRegistry()
        registry.gauge("depth", lambda: 0.0)
        with pytest.raises(ValueError):
            registry.gauge("depth", lambda: 1.0)
