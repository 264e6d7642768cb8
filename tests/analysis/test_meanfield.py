"""Mean-field analytic backend: pmf properties, model sanity, validation.

The heavy accuracy claim (<= 5% energy error across all four Table-II
sweeps at n=1000) is checked by ``repro.cli meanfield --validate`` and
documented in docs/performance.md; these tests pin the cheap invariants
so refactors cannot silently break the model's structure, plus one small
cross-validation point to keep the analytic and discrete paths wired
together.
"""

import numpy as np
import pytest

from repro.analysis.meanfield import (
    MeanFieldResult,
    ValidationReport,
    analyze,
    cross_validate,
    folded_poisson_pmf,
)
from repro.core import EEVFSConfig
from repro.experiments.sweeps import _config_for, _workload_for, SWEEPS
from repro.sim import Simulator
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
