"""Tests for the multi-speed (DRPM) disk extension."""

import pytest

from repro.disk import DiskState, SimDisk
from repro.disk.specs import ATA_80GB_TYPE1, LowSpeedProfile, MB, MULTISPEED_80GB
from repro.sim import Simulator

SPEC = MULTISPEED_80GB


@pytest.fixture
def sim():
    return Simulator()


class TestLowSpeedProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            LowSpeedProfile(
                bandwidth_bps=0, power_active_w=5, power_idle_w=3,
                shift_s=1, shift_energy_j=5,
            )
        with pytest.raises(ValueError):
            LowSpeedProfile(
                bandwidth_bps=1e6, power_active_w=3, power_idle_w=5,
                shift_s=1, shift_energy_j=5,
            )
        with pytest.raises(ValueError):
            LowSpeedProfile(
                bandwidth_bps=1e6, power_active_w=5, power_idle_w=3,
                shift_s=-1, shift_energy_j=5,
            )

    def test_shift_power(self):
        profile = LowSpeedProfile(
            bandwidth_bps=1e6, power_active_w=5, power_idle_w=3,
            shift_s=2.0, shift_energy_j=10.0,
        )
        assert profile.shift_power_w == pytest.approx(5.0)

    def test_spec_consistency_checks(self):
        # Low speed must be slower and lower-power than full speed.
        with pytest.raises(ValueError, match="slower"):
            ATA_80GB_TYPE1.with_overrides(
                low_speed=LowSpeedProfile(
                    bandwidth_bps=ATA_80GB_TYPE1.bandwidth_bps,
                    power_active_w=5, power_idle_w=3, shift_s=1, shift_energy_j=5,
                )
            )
        with pytest.raises(ValueError, match="power"):
            ATA_80GB_TYPE1.with_overrides(
                low_speed=LowSpeedProfile(
                    bandwidth_bps=1e6,
                    power_active_w=20, power_idle_w=19, shift_s=1, shift_energy_j=5,
                )
            )


class TestShifting:
    def test_shift_on_single_speed_drive_raises(self, sim):
        disk = SimDisk(sim, ATA_80GB_TYPE1)
        with pytest.raises(RuntimeError):
            disk.shift_down()

    def test_shift_refused_with_inflight_work(self, sim):
        disk = SimDisk(sim, SPEC)
        disk.submit(50 * MB)
        assert disk.shift_down() is False
        sim.run()

    def test_service_slower_at_low_speed(self, sim):
        disk = SimDisk(sim, SPEC)
        sim.run(until=disk.submit(10 * MB).done)
        full = sim.now
        disk.shift_down()
        sim.run(until=sim.now + SPEC.low_speed.shift_s + 0.01)
        t0 = sim.now
        sim.run(until=disk.submit(10 * MB).done)
        low = sim.now - t0
        sim.run()
        ratio = low / full
        # ~58/30 media-rate ratio, softened by positioning overhead.
        assert 1.5 < ratio < 2.2
        assert disk.state is DiskState.LOW_IDLE  # returns to low idle

    def test_low_idle_serves_without_spinup_penalty(self, sim):
        """The DRPM selling point: no 2 s stall on the next request."""
        disk = SimDisk(sim, SPEC)
        disk.shift_down()
        sim.run(until=10.0)
        req = disk.submit(1 * MB)
        sim.run(until=req.done)
        low_service = disk.low_spec.service_time(1 * MB)
        assert sim.now - req.issued_at == pytest.approx(low_service)

    def test_low_speed_idle_power_cheaper(self, sim):
        def energy(shift):
            s = Simulator()
            d = SimDisk(s, SPEC)
            if shift:
                d.shift_down()
            s.run(until=600.0)
            d.finalize()
            return d.energy_j()

        assert energy(shift=True) < energy(shift=False)

    def test_low_idle_refuses_to_sleep(self, sim):
        """A shifted drive stays at low speed: spin-down starts only from
        full-speed idle."""
        disk = SimDisk(sim, SPEC)
        disk.shift_down()
        sim.run(until=SPEC.low_speed.shift_s + 0.01)
        assert disk.request_sleep() is False
        sim.run(until=sim.now + SPEC.spindown_s + 0.01)
        assert disk.state is DiskState.LOW_IDLE
        sim.run()
        assert disk.transition_count == 0

    def test_idle_action_low_speed_watchdog(self, sim):
        disk = SimDisk(sim, SPEC, auto_sleep_after=5.0, idle_action="low_speed")
        sim.run(until=disk.submit(1 * MB).done)
        sim.run(until=sim.now + 5.0 + SPEC.low_speed.shift_s + 0.05)
        assert disk.state is DiskState.LOW_IDLE
        sim.run()
        assert disk.shift_count == 1
        assert disk.transition_count == 0  # shifts are not standby cycles

    def test_idle_action_validation(self, sim):
        with pytest.raises(ValueError):
            SimDisk(sim, SPEC, idle_action="hover")
        with pytest.raises(ValueError):
            SimDisk(sim, ATA_80GB_TYPE1, idle_action="low_speed")
