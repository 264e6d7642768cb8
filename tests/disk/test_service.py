"""Unit tests for the service-time model."""

import pytest

from repro.disk import ATA_80GB_TYPE1, ServiceTimeModel
from repro.disk.specs import MB


@pytest.fixture
def model():
    return ServiceTimeModel(ATA_80GB_TYPE1)


def test_service_time_is_positioning_plus_transfer(model):
    spec = ATA_80GB_TYPE1
    t = model.service_time(10 * MB)
    assert t == pytest.approx(spec.positioning_s + 10 * MB / spec.bandwidth_bps)


def test_sequential_skips_positioning(model):
    spec = ATA_80GB_TYPE1
    t = model.service_time(10 * MB, sequential=True)
    assert t == pytest.approx(10 * MB / spec.bandwidth_bps)
    assert t < model.service_time(10 * MB)


def test_zero_size_costs_only_positioning(model):
    assert model.service_time(0) == pytest.approx(ATA_80GB_TYPE1.positioning_s)
    assert model.service_time(0, sequential=True) == 0.0


def test_negative_size_rejected(model):
    with pytest.raises(ValueError):
        model.service_time(-1)


def test_service_time_monotone_in_size(model):
    sizes = [1 * MB, 5 * MB, 25 * MB, 50 * MB]
    times = [model.service_time(s) for s in sizes]
    assert times == sorted(times)


def test_throughput_below_media_bandwidth(model):
    # Positioning overhead means effective throughput < media rate.
    assert model.throughput_bps(1 * MB) < ATA_80GB_TYPE1.bandwidth_bps
    # Sequential transfers hit the media rate exactly.
    assert model.throughput_bps(1 * MB, sequential=True) == pytest.approx(
        ATA_80GB_TYPE1.bandwidth_bps
    )


def test_throughput_rejects_non_positive_size(model):
    with pytest.raises(ValueError):
        model.throughput_bps(0)


def test_larger_requests_have_higher_throughput(model):
    # Positioning amortises over the transfer: the paper's Fig. 3a/5a lever.
    assert model.throughput_bps(50 * MB) > model.throughput_bps(1 * MB)
