"""Mean-field analytic backend: pmf properties, model sanity, validation.

The heavy accuracy claim (<= 5% energy error across all four Table-II
sweeps at n=1000) is checked by ``repro.cli meanfield --validate`` and
documented in docs/performance.md; these tests pin the cheap invariants
so refactors cannot silently break the model's structure, the
calibration point's 1 % / 3 % energy bounds, the Pollaczek-Khinchine
formula against known values and a simulated single-disk queue, plus
one small cross-validation point to keep the analytic and discrete paths
wired together.
"""

import numpy as np
import pytest

from repro.analysis.meanfield import (
    _MVA_QUEUE_WEIGHT,
    MeanFieldResult,
    ValidationReport,
    analyze,
    cross_validate,
    folded_poisson_pmf,
    mg1_mean_response_s,
)
from repro.core import EEVFSConfig, run_eevfs
from repro.disk import ATA_80GB_TYPE1, SimDisk
from repro.experiments.sweeps import _config_for, _workload_for, SWEEPS
from repro.sim import Simulator
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


class TestFoldedPoissonPmf:
    def test_is_a_probability_distribution(self):
        for mu in (1.0, 300.0, 1000.0, 2000.0):
            pmf = folded_poisson_pmf(mu, n_files=3000)
            assert pmf.shape == (3000,)
            assert np.all(pmf >= 0)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_small_mu_concentrates_low_ids(self):
        # mu controls skew: small mu piles mass onto few files, so the
        # top-100 mass must shrink as mu grows (paper's Fig. skew knob).
        masses = []
        for mu in (100.0, 500.0, 2000.0):
            pmf = folded_poisson_pmf(mu, n_files=3000)
            masses.append(np.sort(pmf)[::-1][:100].sum())
        assert masses[0] > masses[1] > masses[2]


class TestAnalyze:
    def test_returns_consistent_result(self):
        result = analyze(SyntheticWorkload(n_requests=1000))
        assert isinstance(result, MeanFieldResult)
        assert 0.0 <= result.hit_rate <= 1.0
        assert result.pf_energy_j > 0
        assert result.npf_energy_j > 0
        assert result.duration_s > 0
        assert result.mean_response_s > 0
        assert result.transitions >= 0
        # The headline claim: prefetching saves energy at the defaults.
        assert result.savings_fraction > 0

    def test_prefetch_disabled_kills_hits_and_savings(self):
        result = analyze(
            SyntheticWorkload(n_requests=1000),
            config=EEVFSConfig(prefetch_enabled=False),
        )
        assert result.hit_rate == 0.0

    def test_higher_k_raises_hit_rate(self):
        workload = SyntheticWorkload(n_requests=1000)
        low = analyze(workload, config=EEVFSConfig(prefetch_files=50))
        high = analyze(workload, config=EEVFSConfig(prefetch_files=400))
        assert high.hit_rate > low.hit_rate

    def test_never_builds_a_simulator(self, monkeypatch):
        # The backend's point is to skip discrete simulation: every
        # Table-II point must come out of closed forms alone.
        def refuse(self, *args, **kwargs):
            raise AssertionError("analyze() built a discrete Simulator")

        monkeypatch.setattr(Simulator, "__init__", refuse)
        points = [
            (sweep, value) for sweep, (_, values) in SWEEPS.items() for value in values
        ]
        assert len(points) == 16
        for sweep, value in points:
            result = analyze(
                _workload_for(sweep, value, 1000),
                config=_config_for(sweep, value, EEVFSConfig()),
            )
            assert result.pf_energy_j > 0

    def test_occupancy_fractions_are_sane(self):
        result = analyze(SyntheticWorkload(n_requests=1000))
        assert result.occupancy  # state -> fraction of the run
        assert all(fraction >= 0 for fraction in result.occupancy.values())
        assert sum(result.occupancy.values()) == pytest.approx(1.0, abs=1e-6)


class TestCrossValidate:
    def test_single_point_agrees_with_discrete(self):
        # One cheap point end-to-end: the analytic model must land
        # within 10% of the discrete simulator on both energies (the
        # full 16-point gate at n=1000 holds <= 5%; the smaller n here
        # is noisier, hence the looser bound).
        report = cross_validate(sweeps={"mu": (300.0,)}, n_requests=400)
        assert isinstance(report, ValidationReport)
        assert len(report.points) == 1
        point = report.points[0]
        assert abs(point.pf_energy_error) < 0.10
        assert abs(point.npf_energy_error) < 0.10
        assert point.meanfield_wall_s < point.discrete_wall_s


class TestCalibrationPoint:
    """The closed form against the simulator at 600 requests, trace seed 1."""

    WORKLOAD = SyntheticWorkload(n_requests=600)

    @pytest.fixture(scope="class")
    def measured(self):
        trace = generate_synthetic_trace(self.WORKLOAD, rng=np.random.default_rng(1))
        return run_eevfs(trace, EEVFSConfig()), run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))

    def test_npf_matches_simulator_within_one_percent(self, measured):
        _, npf = measured
        assert analyze(self.WORKLOAD).npf_energy_j == pytest.approx(npf.energy_j, rel=0.01)

    def test_pf_matches_simulator_within_three_percent(self, measured):
        pf, _ = measured
        assert analyze(self.WORKLOAD).pf_energy_j == pytest.approx(pf.energy_j, rel=0.03)

    def test_savings_prediction_close_to_measured(self, measured):
        pf, npf = measured
        saved = 1 - pf.energy_j / npf.energy_j
        assert analyze(self.WORKLOAD).savings_fraction == pytest.approx(saved, abs=0.03)

    def test_all_hit_is_the_savings_ceiling(self):
        """MU <= 100: every request hits the buffer and the data disks
        sleep the whole run -- the ~14.8 % ceiling of Fig. 3(b)."""
        for mu in (1.0, 10.0, 100.0):
            result = analyze(SyntheticWorkload(n_requests=600, mu=mu))
            assert result.hit_rate > 0.999
            assert 0.12 <= result.savings_fraction <= 0.18

    def test_longer_idle_threshold_spends_more_pf_energy(self):
        """A 30 s threshold sleeps through fewer gaps than 5 s."""
        short = analyze(self.WORKLOAD, config=EEVFSConfig(idle_threshold_s=5.0))
        long = analyze(self.WORKLOAD, config=EEVFSConfig(idle_threshold_s=30.0))
        assert long.transitions < short.transitions
        assert long.pf_energy_j > short.pf_energy_j


class TestPollaczekKhinchine:
    def test_md1_known_value(self):
        """M/D/1 at rho=0.5 with E[S]=1: W = rho/(2(1-rho)) * E[S] = 0.5."""
        assert mg1_mean_response_s(0.5, 1.0, 1.0) == pytest.approx(1.5)

    def test_mm1_known_value(self):
        """M/M/1 (E[S^2] = 2 E[S]^2) at rho=0.5: W = rho/(1-rho) E[S] = 1,
        so the response W + E[S] is 2."""
        assert mg1_mean_response_s(0.5, 1.0, 2.0) == pytest.approx(2.0)

    def test_response_is_wait_plus_service(self):
        """M/M/1 at rho=0.5 waits W = E[S] at any service time; the
        response adds one more E[S]."""
        for service_s in (0.01, 1.0, 7.0):
            rate_hz = 0.5 / service_s
            response = mg1_mean_response_s(rate_hz, service_s, 2.0 * service_s**2)
            assert response == pytest.approx(2.0 * service_s)

    def test_zero_load_means_zero_wait(self):
        assert mg1_mean_response_s(0.0, 1.0, 1.0) == 1.0

    def test_wait_grows_with_variance(self):
        assert mg1_mean_response_s(0.5, 1.0, 5.0) > mg1_mean_response_s(0.5, 1.0, 1.0)

    def test_md1_and_mm1_bound_the_mva_queue_weight(self):
        """The M/D/1 wait is half the M/M/1 wait at any load: the two
        weights the MVA recursion's calibrated weight sits between."""
        for rho in (0.1, 0.5, 0.9):
            md1 = mg1_mean_response_s(rho, 1.0, 1.0) - 1.0
            mm1 = mg1_mean_response_s(rho, 1.0, 2.0) - 1.0
            assert md1 / mm1 == pytest.approx(0.5)
        assert 0.5 <= _MVA_QUEUE_WEIGHT <= 1.0

    def test_unstable_queue_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            mg1_mean_response_s(2.0, 1.0, 1.0)

    def test_impossible_second_moment_rejected(self):
        with pytest.raises(ValueError):
            mg1_mean_response_s(0.1, 1.0, 0.5)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            mg1_mean_response_s(-1.0, 0.1, 0.01)
        with pytest.raises(ValueError):
            mg1_mean_response_s(1.0, -0.1, 0.01)


class TestSimulatorAgreement:
    """The simulator must agree with M/D/1 on a workload built to match
    its assumptions (single disk, Poisson arrivals, fixed-size requests)."""

    @pytest.mark.parametrize("rho_target", [0.3, 0.6])
    def test_single_disk_queue_matches_md1(self, rho_target):
        size = 8 * 1024 * 1024
        service = ATA_80GB_TYPE1.positioning_s + size / ATA_80GB_TYPE1.bandwidth_bps
        rate = rho_target / service
        gaps = iter(np.random.default_rng(7).exponential(1.0 / rate, size=3000))

        sim = Simulator()
        disk = SimDisk(sim, ATA_80GB_TYPE1)
        responses = []

        def arrive(_value=None):
            # Submit one request, time its response, sleep until the next.
            t0 = sim.now
            disk.submit(size).done.callbacks.append(
                lambda _event: responses.append(sim.now - t0)
            )
            gap = next(gaps, None)
            if gap is not None:
                sim.call_later(gap, arrive)

        sim.call_later(next(gaps), arrive)
        sim.run()
        measured = sum(responses) / len(responses)
        assert measured == pytest.approx(mg1_mean_response_s(rate, service, service**2), rel=0.15)
