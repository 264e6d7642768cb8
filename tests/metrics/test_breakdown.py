"""Tests for energy/state breakdowns."""

import numpy as np
import pytest

from repro.core import EEVFSConfig, run_eevfs
from repro.metrics.breakdown import (
    breakdown_table,
    compare_breakdowns,
    energy_breakdown,
    state_time_breakdown,
)
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


@pytest.fixture(scope="module")
def pair():
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=300), rng=np.random.default_rng(1)
    )
    pf = run_eevfs(trace, EEVFSConfig())
    npf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))
    return pf, npf


class TestEnergyBreakdown:
    def test_components_sum_to_total(self, pair):
        pf, _ = pair
        breakdown = energy_breakdown(pf)
        assert breakdown.total_j == pytest.approx(pf.energy_j)

    def test_fractions_sum_to_one(self, pair):
        pf, _ = pair
        fractions = energy_breakdown(pf).fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_base_power_dominates(self, pair):
        """The calibration fact behind the 11-17 % band."""
        pf, _ = pair
        assert energy_breakdown(pf).fractions()["base"] > 0.5

    def test_npf_base_power_dominates(self, pair):
        """Whole-node base power is also over half of the NPF run, the
        denominator of every savings figure."""
        _, npf = pair
        assert energy_breakdown(npf).fractions()["base"] > 0.5

    def test_savings_come_from_data_disks(self, pair):
        """PF's advantage must live in the data-disk component."""
        pf, npf = pair
        a, b = energy_breakdown(pf), energy_breakdown(npf)
        assert a.base_j == pytest.approx(b.base_j, rel=0.01)
        data_saved = b.data_disks_j - a.data_disks_j
        total_saved = b.total_j - a.total_j
        assert data_saved > 0.8 * total_saved

    def test_pf_buffer_disks_work_harder(self, pair):
        pf, npf = pair
        assert (
            energy_breakdown(pf).buffer_disks_j
            >= energy_breakdown(npf).buffer_disks_j
        )


class TestStateTime:
    def test_pf_has_standby_time_npf_does_not(self, pair):
        pf, npf = pair
        assert state_time_breakdown(pf).get("standby", 0) > 0
        assert state_time_breakdown(npf).get("standby", 0) == 0

    def test_state_times_cover_run(self, pair):
        pf, _ = pair
        per_disk_span = sum(state_time_breakdown(pf).values())
        n_data_disks = sum(
            sum(1 for d in n.disks if "buffer" not in d.name) for n in pf.nodes
        )
        # Each data disk's states tile the whole simulation timeline.
        assert per_disk_span == pytest.approx(n_data_disks * pf.end_s, rel=0.01)


class TestRendering:
    def test_breakdown_table(self, pair):
        pf, _ = pair
        text = breakdown_table(pf)
        assert "Energy by component" in text
        assert "standby" in text

    def test_compare_breakdowns(self, pair):
        pf, npf = pair
        text = compare_breakdowns(pf, npf)
        assert "saved_J" in text
        assert "data disks" in text
