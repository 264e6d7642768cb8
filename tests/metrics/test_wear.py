"""Unit tests for start/stop wear accounting."""

import math

import numpy as np
import pytest

from repro.core import EEVFSConfig, run_eevfs
from repro.metrics.wear import (
    cycles_per_year,
    SECONDS_PER_YEAR,
    wear_report,
    years_to_rated_limit,
)
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


class TestFormulas:
    def test_cycles_per_year(self):
        # 10 cycles in one day -> 3652.5 cycles/year.
        assert cycles_per_year(10, 86400.0) == pytest.approx(
            10 * SECONDS_PER_YEAR / 86400.0
        )

    def test_zero_cycles(self):
        assert cycles_per_year(0, 100.0) == 0.0
        assert math.isinf(years_to_rated_limit(0, 100.0, 50_000))

    def test_years_to_limit(self):
        # 50k rated, consuming 5k/year -> 10 years.
        duration = SECONDS_PER_YEAR
        assert years_to_rated_limit(5000, duration, 50_000) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            cycles_per_year(1, 0.0)
        with pytest.raises(ValueError):
            cycles_per_year(-1, 10.0)


class TestWearReport:
    @pytest.fixture(scope="class")
    def result(self):
        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=300), rng=np.random.default_rng(1)
        )
        return run_eevfs(trace, EEVFSConfig())

    def test_one_row_per_disk(self, result):
        report = wear_report(result)
        n_disks = sum(len(n.disks) for n in result.nodes)
        assert len(report.disks) == n_disks

    def test_total_spinups_match_run(self, result):
        report = wear_report(result)
        spinups = sum(d.spinups for n in result.nodes for d in n.disks)
        assert sum(d.spinups for d in report.disks) == spinups

    def test_worst_disk_is_fastest_wearing(self, result):
        report = wear_report(result)
        worst = report.worst
        assert worst is not None
        assert worst.years_to_limit == min(
            d.years_to_limit for d in report.disks if d.spinups > 0
        )

    def test_buffer_disks_never_wear(self, result):
        """Buffer disks never sleep, so they consume no start/stop budget."""
        report = wear_report(result)
        for disk in report.disks:
            if "buffer" in disk.name:
                assert disk.spinups == 0
                assert math.isinf(disk.years_to_limit)

    def test_npf_run_has_no_wear(self):
        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=100), rng=np.random.default_rng(1)
        )
        result = run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))
        report = wear_report(result)
        assert report.worst is None
        assert all(d.spinups == 0 for d in report.disks)

    def test_rows_shape(self, result):
        rows = wear_report(result).rows()
        assert all(len(row) == 4 for row in rows)

    def test_k10_wears_faster_than_k100(self):
        """§VI-B quantified: the K=10 configuration (max transitions for
        3 % savings) consumes the start/stop budget fastest."""
        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=400), rng=np.random.default_rng(1)
        )
        k10 = wear_report(run_eevfs(trace, EEVFSConfig(prefetch_files=10)))
        k100 = wear_report(run_eevfs(trace, EEVFSConfig(prefetch_files=100)))
        assert k10.worst.years_to_limit < k100.worst.years_to_limit
