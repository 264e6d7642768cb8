"""Cross-validation: the simulator vs the closed-form energy model."""

import numpy as np
import pytest

from repro.analysis.energymodel import (
    observed_sleep_fraction,
    predicted_npf_energy_j,
    predicted_pf_energy_j,
)
from repro.core import default_cluster, EEVFSConfig, run_eevfs
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


@pytest.fixture(scope="module")
def setup():
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=600), rng=np.random.default_rng(1)
    )
    cluster = default_cluster()
    npf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))
    pf = run_eevfs(trace, EEVFSConfig())
    return trace, cluster, pf, npf


class TestNPFPrediction:
    def test_matches_simulator_within_one_percent(self, setup):
        trace, cluster, _, npf = setup
        predicted = predicted_npf_energy_j(cluster, trace, duration_s=npf.duration_s)
        assert predicted.total_j == pytest.approx(npf.energy_j, rel=0.01)

    def test_decomposition_adds_up(self, setup):
        trace, cluster, _, _ = setup
        p = predicted_npf_energy_j(cluster, trace)
        assert p.total_j == pytest.approx(p.base_j + p.buffer_disks_j + p.data_disks_j)

    def test_base_power_dominates(self, setup):
        """The modeling decision behind the 11-17 % band: whole-node base
        power is the denominator's biggest term."""
        trace, cluster, _, _ = setup
        p = predicted_npf_energy_j(cluster, trace)
        assert p.base_j > 0.5 * p.total_j


class TestPFPrediction:
    def test_matches_simulator_within_three_percent(self, setup):
        trace, cluster, pf, _ = setup
        predicted = predicted_pf_energy_j(
            cluster,
            trace,
            hit_rate=pf.buffer_hit_rate,
            sleep_fraction=observed_sleep_fraction(pf),
            transitions_per_disk=pf.transitions / cluster.n_data_disks,
            duration_s=pf.duration_s,
        )
        assert predicted.total_j == pytest.approx(pf.energy_j, rel=0.03)

    def test_savings_prediction_close_to_measured(self, setup):
        trace, cluster, pf, npf = setup
        predicted_pf = predicted_pf_energy_j(
            cluster,
            trace,
            hit_rate=pf.buffer_hit_rate,
            sleep_fraction=observed_sleep_fraction(pf),
            transitions_per_disk=pf.transitions / cluster.n_data_disks,
        )
        predicted = 1 - predicted_pf.total_j / predicted_npf_energy_j(cluster, trace).total_j
        measured = 1 - pf.energy_j / npf.energy_j
        assert predicted == pytest.approx(measured, abs=0.03)

    def test_validation(self, setup):
        trace, cluster, _, _ = setup
        with pytest.raises(ValueError):
            predicted_pf_energy_j(cluster, trace, hit_rate=1.5, sleep_fraction=0.5,
                                  transitions_per_disk=1)
        with pytest.raises(ValueError):
            predicted_pf_energy_j(cluster, trace, hit_rate=0.5, sleep_fraction=-0.1,
                                  transitions_per_disk=1)

    def test_more_sleep_means_less_energy(self, setup):
        trace, cluster, _, _ = setup
        light = predicted_pf_energy_j(cluster, trace, 0.8, 0.2, 10)
        heavy = predicted_pf_energy_j(cluster, trace, 0.8, 0.9, 10)
        assert heavy.total_j < light.total_j

    def test_all_hit_full_sleep_is_the_savings_ceiling(self, setup):
        """MU<=100 regime in closed form: hit rate 1, sleep fraction ~1,
        one transition pair -- the ~14.8 % ceiling of Fig. 3(b)."""
        trace, cluster, _, _ = setup
        pf = predicted_pf_energy_j(
            cluster, trace, hit_rate=1.0, sleep_fraction=0.99, transitions_per_disk=2
        )
        ceiling = 1 - pf.total_j / predicted_npf_energy_j(cluster, trace).total_j
        assert 0.12 <= ceiling <= 0.18


class TestObservedSleepFraction:
    def test_zero_for_npf(self, setup):
        _, _, _, npf = setup
        assert observed_sleep_fraction(npf) == 0.0

    def test_between_zero_and_one_for_pf(self, setup):
        _, _, pf, _ = setup
        assert 0.0 < observed_sleep_fraction(pf) < 1.0
