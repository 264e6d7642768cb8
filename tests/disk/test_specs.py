"""Unit tests for drive specifications and the catalog."""

import pytest

from repro.disk import (
    ATA_80GB_TYPE1,
    ATA_80GB_TYPE2,
    DISK_CATALOG,
    DiskSpec,
    SATA_120GB_SERVER,
)
from repro.disk.specs import GB, MB


def _valid_kwargs(**overrides):
    base = dict(
        name="test-disk",
        capacity_bytes=10 * GB,
        bandwidth_bps=50 * MB,
        avg_seek_s=0.008,
        avg_rotation_s=0.004,
        power_active_w=9.0,
        power_idle_w=6.0,
        power_standby_w=1.0,
        spinup_s=2.0,
        spinup_energy_j=24.0,
        spindown_s=1.0,
        spindown_energy_j=4.0,
    )
    base.update(overrides)
    return base


class TestValidation:
    def test_valid_spec_constructs(self):
        DiskSpec(**_valid_kwargs())

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DiskSpec(**_valid_kwargs(capacity_bytes=0))

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            DiskSpec(**_valid_kwargs(bandwidth_bps=0))

    def test_negative_seek_rejected(self):
        with pytest.raises(ValueError):
            DiskSpec(**_valid_kwargs(avg_seek_s=-0.001))

    def test_power_ordering_enforced(self):
        # standby >= idle is physically nonsensical
        with pytest.raises(ValueError):
            DiskSpec(**_valid_kwargs(power_standby_w=6.0))
        # idle > active likewise
        with pytest.raises(ValueError):
            DiskSpec(**_valid_kwargs(power_idle_w=9.5))

    def test_spinup_energy_floor(self):
        # Spin-up cannot cost less than standby power over its duration.
        with pytest.raises(ValueError):
            DiskSpec(**_valid_kwargs(spinup_energy_j=0.5))


class TestDerived:
    def test_transfer_time(self):
        # A sequential request pays the media transfer alone.
        spec = DiskSpec(**_valid_kwargs(bandwidth_bps=50 * MB))
        assert spec.service_time(50 * MB, sequential=True) == pytest.approx(1.0)
        assert spec.service_time(0, sequential=True) == 0.0

    def test_negative_transfer_size_rejected(self):
        spec = DiskSpec(**_valid_kwargs())
        with pytest.raises(ValueError, match="negative transfer size"):
            spec.service_time(-1, sequential=True)

    def test_positioning_is_seek_plus_rotation(self):
        spec = DiskSpec(**_valid_kwargs(avg_seek_s=0.01, avg_rotation_s=0.005))
        assert spec.positioning_s == pytest.approx(0.015)

    def test_transition_powers(self):
        spec = DiskSpec(**_valid_kwargs(spinup_s=2.0, spinup_energy_j=24.0))
        assert spec.spinup_power_w == pytest.approx(12.0)
        assert spec.spindown_power_w == pytest.approx(4.0)

    def test_with_overrides_returns_new_spec(self):
        spec = DiskSpec(**_valid_kwargs())
        faster = spec.with_overrides(bandwidth_bps=100 * MB)
        assert faster.bandwidth_bps == 100 * MB
        assert spec.bandwidth_bps == 50 * MB  # original untouched
        assert faster.name == spec.name

    def test_specs_are_immutable(self):
        spec = DiskSpec(**_valid_kwargs())
        with pytest.raises(AttributeError):
            spec.bandwidth_bps = 1


class TestCatalog:
    def test_catalog_contains_testbed_drives(self):
        assert ATA_80GB_TYPE1.name in DISK_CATALOG
        assert ATA_80GB_TYPE2.name in DISK_CATALOG
        assert SATA_120GB_SERVER.name in DISK_CATALOG

    def test_table1_bandwidths(self):
        """Table I: 58 MB/s (type 1), 34 MB/s (type 2), 100 MB/s (server)."""
        assert ATA_80GB_TYPE1.bandwidth_bps == 58 * MB
        assert ATA_80GB_TYPE2.bandwidth_bps == 34 * MB
        assert SATA_120GB_SERVER.bandwidth_bps == 100 * MB

    def test_table1_capacities(self):
        assert ATA_80GB_TYPE1.capacity_bytes == 80 * GB
        assert ATA_80GB_TYPE2.capacity_bytes == 80 * GB
        assert SATA_120GB_SERVER.capacity_bytes == 120 * GB

    def test_spinup_near_two_seconds(self):
        """§VI-C: spin-ups 'average around 2 sec' on the testbed drives."""
        assert 1.5 <= ATA_80GB_TYPE1.spinup_s <= 2.5
        assert 1.5 <= ATA_80GB_TYPE2.spinup_s <= 2.5

    def test_catalog_keys_match_spec_names(self):
        for name, spec in DISK_CATALOG.items():
            assert name == spec.name
