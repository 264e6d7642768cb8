"""Tests for the diurnal workload generator."""

import numpy as np
import pytest

from repro.traces.diurnal import DiurnalWorkload, generate_diurnal_trace


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_files": 0},
            {"mu": 0},
            {"trough_rate_hz": 0},
            {"trough_rate_hz": 3.0, "peak_rate_hz": 2.0},
            {"period_s": 0},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DiurnalWorkload(**kwargs)


class TestRate:
    def test_peak_at_time_zero(self):
        w = DiurnalWorkload(peak_rate_hz=2.0, trough_rate_hz=0.5, period_s=100.0)
        assert w.rate_at(0.0) == pytest.approx(2.0)

    def test_trough_at_half_period(self):
        w = DiurnalWorkload(peak_rate_hz=2.0, trough_rate_hz=0.5, period_s=100.0)
        assert w.rate_at(50.0) == pytest.approx(0.5)

    def test_periodicity(self):
        w = DiurnalWorkload(period_s=100.0)
        assert w.rate_at(30.0) == pytest.approx(w.rate_at(130.0))


class TestGeneration:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_diurnal_trace(
            DiurnalWorkload(n_requests=2000), rng=np.random.default_rng(4)
        )

    def test_counts(self, trace):
        assert trace.n_requests == 2000
        assert trace.n_files == 1000

    def test_times_strictly_ordered(self, trace):
        times = [r.time_s for r in trace]
        assert times == sorted(times)

    def test_peak_phase_denser_than_trough(self, trace):
        workload = DiurnalWorkload(n_requests=2000)
        # The peak half-period is where the intensity's cosine is positive.
        phase = np.cos(2.0 * np.pi * np.asarray(trace.times) / workload.period_s)
        peak = int((phase > 0).sum())
        trough = trace.n_requests - peak
        # Intensity swing 2.5 vs 0.5 Hz: the peak half-period must carry
        # clearly more traffic.
        assert peak > 1.5 * trough

    def test_mean_rate_between_bounds(self, trace):
        workload = DiurnalWorkload(n_requests=2000)
        rate = trace.n_requests / trace.duration_s
        assert workload.trough_rate_hz < rate < workload.peak_rate_hz

    def test_determinism(self):
        a = generate_diurnal_trace(rng=np.random.default_rng(9))
        b = generate_diurnal_trace(rng=np.random.default_rng(9))
        assert [r.time_s for r in a] == [r.time_s for r in b]

    def test_runs_through_eevfs(self):
        from repro.core import EEVFSConfig, run_eevfs

        trace = generate_diurnal_trace(
            DiurnalWorkload(n_requests=200), rng=np.random.default_rng(1)
        )
        pf = run_eevfs(trace, EEVFSConfig())
        npf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))
        assert pf.requests_total == 200
        assert pf.energy_j < npf.energy_j
