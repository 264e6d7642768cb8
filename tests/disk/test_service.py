"""Unit tests for a drive's request service time (DiskSpec.service_time)."""

import pytest

from repro.disk import ATA_80GB_TYPE1
from repro.disk.specs import MB


@pytest.fixture
def spec():
    return ATA_80GB_TYPE1


def throughput_bps(spec, size_bytes, sequential=False):
    """Effective throughput for requests of *size_bytes*."""
    return size_bytes / spec.service_time(size_bytes, sequential=sequential)


def test_service_time_is_positioning_plus_transfer(spec):
    t = spec.service_time(10 * MB)
    assert t == pytest.approx(spec.positioning_s + 10 * MB / spec.bandwidth_bps)


def test_sequential_skips_positioning(spec):
    t = spec.service_time(10 * MB, sequential=True)
    assert t == pytest.approx(10 * MB / spec.bandwidth_bps)
    assert t < spec.service_time(10 * MB)


def test_zero_size_costs_only_positioning(spec):
    assert spec.service_time(0) == pytest.approx(spec.positioning_s)
    assert spec.service_time(0, sequential=True) == 0.0


def test_negative_size_rejected(spec):
    with pytest.raises(ValueError):
        spec.service_time(-1)


def test_service_time_monotone_in_size(spec):
    sizes = [1 * MB, 5 * MB, 25 * MB, 50 * MB]
    times = [spec.service_time(s) for s in sizes]
    assert times == sorted(times)


def test_throughput_below_media_bandwidth(spec):
    # Positioning overhead means effective throughput < media rate.
    assert throughput_bps(spec, 1 * MB) < spec.bandwidth_bps
    # Sequential transfers hit the media rate exactly.
    assert throughput_bps(spec, 1 * MB, sequential=True) == pytest.approx(spec.bandwidth_bps)


def test_larger_requests_have_higher_throughput(spec):
    # Positioning amortises over the transfer: the paper's Fig. 3a/5a lever.
    assert throughput_bps(spec, 50 * MB) > throughput_bps(spec, 1 * MB)
