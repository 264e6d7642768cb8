"""End-to-end tests for online mode: the full adaptive loop in the sim.

Covers the acceptance bar for the subsystem: same-seed online runs are
byte-identical, the adaptive knobs stay inside their configured bounds,
online mode saves real energy against NPF without the oracle, and --
crucially -- the default (oracle) path is bit-for-bit untouched when
online mode is off.
"""

import numpy as np
import pytest

from repro.core import EEVFSConfig, run_eevfs
from repro.online import controller
from repro.online.controller import IDLE_MAX_S, K_MAX, K_MIN
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import MB, SyntheticWorkload


def online_trace(n_requests=400, seed=7, **kwargs):
    kwargs.setdefault("n_files", 300)
    kwargs.setdefault("mu", 100)
    kwargs.setdefault("data_size_bytes", 2 * MB)
    kwargs.setdefault("inter_arrival_s", 0.2)
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=n_requests, **kwargs),
        rng=np.random.default_rng(seed),
    )


@pytest.fixture(scope="module", autouse=True)
def control_every_10s():
    """Short traces: tick the controller every 10 s, not 30 s."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "CONTROL_INTERVAL_S", 10.0)
        yield


def online_config(**kwargs):
    kwargs.setdefault("online_mode", True)
    kwargs.setdefault("online_replan_epoch_s", 20.0)
    return EEVFSConfig(**kwargs)


@pytest.fixture(scope="module", params=["ema", "cms"])
def online_result(request):
    trace = online_trace()
    result = run_eevfs(
        trace, online_config(online_estimator=request.param), seed=11
    )
    return trace, result


class TestOnlineRun:
    def test_every_request_answered(self, online_result):
        trace, result = online_result
        assert result.requests_total == trace.n_requests

    def test_stats_snapshot_populated(self, online_result):
        _, result = online_result
        stats = result.online
        assert stats is not None
        assert stats.control_ticks > 0
        assert stats.replan_epochs > 0
        assert stats.replans_triggered >= 1  # at least the first plan
        assert stats.samples_recorded == result.requests_total
        assert len(stats.history) == stats.control_ticks

    def test_estimator_feeds_the_buffers(self, online_result):
        """Without any oracle history the replanner still fills buffer
        disks from the learned ranking, and requests start hitting."""
        _, result = online_result
        assert result.prefetch_files_copied > 0
        assert result.buffer_hits > 0

    def test_adaptive_knobs_stay_in_bounds(self, online_result):
        _, result = online_result
        stats = result.online
        for sample in stats.history:
            assert K_MIN <= sample.k <= K_MAX
            assert sample.idle_threshold_s <= IDLE_MAX_S
            assert 0.0 <= sample.spinup_rate
            if sample.hit_ratio is not None:
                assert 0.0 <= sample.hit_ratio <= 1.0
        assert 0.0 <= stats.max_drift <= 1.0

    def test_online_beats_npf_without_the_oracle(self):
        """The headline claim: adaptive prefetching recovers part of the
        oracle's energy savings with no access log at all."""
        trace = online_trace(n_requests=500)
        online = run_eevfs(trace, online_config(), seed=3)
        npf = run_eevfs(trace, online_config().as_npf(), seed=3)
        assert online.energy_j < npf.energy_j


class TestOnlineDeterminism:
    @pytest.mark.parametrize("estimator", ["ema", "cms"])
    def test_same_seed_byte_identical(self, estimator):
        trace = online_trace(n_requests=300)
        config = online_config(online_estimator=estimator)
        a = run_eevfs(trace, config, seed=11)
        b = run_eevfs(trace, config, seed=11)
        assert a.energy_j == b.energy_j
        assert a.transitions == b.transitions
        assert a.response_times.samples == b.response_times.samples
        assert a.online.history == b.online.history
        assert a.online.k_final == b.online.k_final
        assert a.online.idle_final_s == b.online.idle_final_s
        assert a.online.replans_triggered == b.online.replans_triggered


class TestDefaultPathUntouched:
    def test_oracle_run_has_no_online_machinery(self):
        trace = online_trace(n_requests=200)
        result = run_eevfs(trace, EEVFSConfig(), seed=5, obs=True)
        assert result.online is None
        kinds = set(result.trace.span_kinds())
        assert not {"online.estimate", "online.control", "online.replan"} & kinds
        assert "online.k" not in result.trace.series

    def test_online_spans_present_when_enabled(self):
        trace = online_trace(n_requests=200)
        result = run_eevfs(trace, online_config(), seed=5, obs=True)
        kinds = set(result.trace.span_kinds())
        assert {"online.estimate", "online.control", "online.replan"} <= kinds
        assert "online.k" in result.trace.series
        assert "online.idle_threshold_s" in result.trace.series


class TestConfigValidation:
    def test_online_requires_prefetch(self):
        with pytest.raises(ValueError, match="online_mode"):
            EEVFSConfig(online_mode=True, prefetch_enabled=False)

    def test_online_conflicts_with_metadata_plane(self):
        with pytest.raises(ValueError, match="online_mode"):
            EEVFSConfig(online_mode=True, metadata_plane=True)

    def test_online_conflicts_with_oracle_reprefetch(self):
        with pytest.raises(ValueError, match="online_mode"):
            EEVFSConfig(online_mode=True, popularity_window_s=60.0)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="online_estimator"):
            EEVFSConfig(online_mode=True, online_estimator="lru")

    def test_as_npf_strips_online_mode(self):
        npf = online_config().as_npf()
        assert npf.online_mode is False
        assert npf.prefetch_enabled is False
