"""Unit tests for the simulated drive (SimDisk)."""

import pytest

from repro.backend import SATA_SSD_8GB, SSDBackend
from repro.disk import ATA_80GB_TYPE1, DiskState, RequestKind, SimDisk
from repro.disk.specs import MB
from repro.sim import Simulator

SPEC = ATA_80GB_TYPE1


@pytest.fixture
def sim():
    return Simulator()


class TestService:
    def test_single_request_latency(self, sim):
        disk = SimDisk(sim, SPEC)
        req = disk.submit(10 * MB)
        sim.run(until=req.done)
        expected = SPEC.positioning_s + 10 * MB / SPEC.bandwidth_bps
        assert sim.now - req.issued_at == pytest.approx(expected)

    def test_requests_serve_fifo(self, sim):
        disk = SimDisk(sim, SPEC)
        finish = []
        for i in range(3):
            disk.submit(1 * MB, tag=i).done.callbacks.append(
                lambda event: finish.append((event.value.tag, sim.now))
            )
        sim.run()
        tags = [tag for tag, _ in finish]
        times = [t for _, t in finish]
        assert tags == [0, 1, 2]
        assert times == sorted(times)

    def test_sequential_write_faster_than_random(self, sim):
        disk = SimDisk(sim, SPEC)
        sim.run(until=disk.submit(1 * MB, kind=RequestKind.WRITE, sequential=True).done)
        t_seq = sim.now
        sim.run(until=disk.submit(1 * MB, kind=RequestKind.WRITE, sequential=False).done)
        assert t_seq < sim.now - t_seq

    def test_counters(self, sim):
        disk = SimDisk(sim, SPEC)
        for _ in range(4):
            sim.run(until=disk.submit(2 * MB).done)
        sim.run()
        assert disk.requests_served == 4
        assert disk.inflight == 0
        assert disk.service_times.count == 4

    def test_state_returns_to_idle_after_service(self, sim):
        disk = SimDisk(sim, SPEC)
        disk.submit(1 * MB)
        sim.run()
        assert disk.state is DiskState.IDLE

    def test_utilization_between_zero_and_one(self, sim):
        disk = SimDisk(sim, SPEC)
        sim.run(until=disk.submit(50 * MB).done)
        sim.run(until=sim.now + 1.0)
        assert 0.0 < disk.utilization < 1.0


class TestPowerManagement:
    def test_request_sleep_from_idle(self, sim):
        disk = SimDisk(sim, SPEC)
        assert disk.request_sleep() is True
        sim.run(until=SPEC.spindown_s + 0.01)
        assert disk.state is DiskState.STANDBY

    def test_request_sleep_refused_with_inflight_work(self, sim):
        disk = SimDisk(sim, SPEC)
        disk.submit(50 * MB)
        assert disk.request_sleep() is False
        sim.run()

    def test_request_sleep_refused_when_already_sleeping(self, sim):
        disk = SimDisk(sim, SPEC)
        assert disk.request_sleep() is True
        assert disk.request_sleep() is False  # already spinning down
        sim.run(until=SPEC.spindown_s + 0.01)
        assert disk.request_sleep() is False  # already in standby

    def test_wake_from_standby(self, sim):
        disk = SimDisk(sim, SPEC)
        disk.request_sleep()
        sim.run(until=SPEC.spindown_s + 0.01)
        assert disk.wake() is True
        sim.run(until=sim.now + SPEC.spinup_s + 0.01)
        assert disk.state is DiskState.IDLE

    def test_wake_noop_when_spinning(self, sim):
        disk = SimDisk(sim, SPEC)
        assert disk.wake() is False
        sim.run()

    def test_spinup_penalty_on_standby_hit(self, sim):
        disk = SimDisk(sim, SPEC)
        disk.request_sleep()
        sim.run(until=SPEC.spindown_s + 10.0)
        req = disk.submit(1 * MB)
        sim.run(until=req.done)
        base = SPEC.positioning_s + 1 * MB / SPEC.bandwidth_bps
        assert sim.now - req.issued_at == pytest.approx(base + SPEC.spinup_s)

    def test_request_during_spindown_waits_full_round_trip(self, sim):
        """A request landing mid-spin-down pays the rest of the spin-down
        plus the full spin-up -- the §VI-C anomaly mechanism."""
        disk = SimDisk(sim, SPEC)
        disk.request_sleep()
        sim.run(until=SPEC.spindown_s / 2.0)
        req = disk.submit(1 * MB)
        sim.run(until=req.done)
        base = SPEC.positioning_s + 1 * MB / SPEC.bandwidth_bps
        expected = SPEC.spindown_s / 2.0 + SPEC.spinup_s + base
        assert sim.now - req.issued_at == pytest.approx(expected)

    def test_transition_count_over_sleep_cycle(self, sim):
        disk = SimDisk(sim, SPEC)
        disk.request_sleep()
        sim.run(until=SPEC.spindown_s + 5.0)
        disk.submit(1 * MB)
        sim.run()
        assert disk.transition_count == 2  # one down, one up

    def test_standby_saves_energy_over_long_window(self, sim):
        def scenario(sleep):
            s = Simulator()
            disk = SimDisk(s, SPEC)
            if sleep:
                disk.request_sleep()
            s.run(until=600.0)
            disk.finalize()
            return disk.energy_j()

        assert scenario(sleep=True) < scenario(sleep=False)

    def test_short_window_sleep_wastes_energy(self):
        """Sleeping for under the break-even window must cost extra --
        validates that transition energy is actually charged."""

        def scenario(sleep):
            s = Simulator()
            disk = SimDisk(s, SPEC)
            if sleep:
                disk.request_sleep()
                s.run(until=SPEC.spindown_s + 0.2)
                disk.wake()
            s.run(until=20.0)
            disk.finalize()
            return disk.energy_j()

        assert scenario(sleep=True) > scenario(sleep=False)


class TestIdleWatchdog:
    def test_auto_sleep_fires_after_threshold(self, sim):
        disk = SimDisk(sim, SPEC, auto_sleep_after=5.0)
        sim.run(until=disk.submit(1 * MB).done)
        sim.run(until=sim.now + 5.0 + SPEC.spindown_s + 0.01)
        assert disk.state is DiskState.STANDBY

    def test_activity_resets_idle_timer(self, sim):
        disk = SimDisk(sim, SPEC, auto_sleep_after=5.0)
        sim.run(until=disk.submit(1 * MB).done)
        sim.run(until=sim.now + 3.0)
        sim.run(until=disk.submit(1 * MB).done)  # interrupts the countdown
        sim.run(until=sim.now + 3.0)
        assert disk.state is DiskState.IDLE  # timer restarted
        sim.run(until=sim.now + 2.5 + SPEC.spindown_s)
        assert disk.state is DiskState.STANDBY

    @pytest.mark.parametrize("device", ["hdd", "ssd"])
    def test_same_instant_submits_retire_the_timer_once(self, sim, device):
        # Two submits in one callback while the idle timer runs retire
        # the timer once; a second retirement would reach a watchdog that
        # is no longer timing.
        if device == "hdd":
            disk, at, size = SimDisk(sim, SPEC, auto_sleep_after=10.0), 1.0, 1000
        else:
            disk = SSDBackend(sim, SATA_SSD_8GB, auto_sleep_after=1.0)
            at, size = 0.5, 64 * 1024
        requests = []

        def burst(_value):
            requests.append(disk.submit(size))
            requests.append(disk.submit(size))

        sim.call_later(at, burst)
        sim.run(until=at + 0.5)
        assert [r.done.ok for r in requests] == [True, True]
        assert disk.state is DiskState.IDLE
        # The next idle period is timed afresh and ends in sleep.
        sim.run(until=at + 0.5 + disk.auto_sleep_after + disk.spec.spindown_s)
        assert disk.state is DiskState.STANDBY

    def test_negative_threshold_rejected(self, sim):
        with pytest.raises(ValueError):
            SimDisk(sim, SPEC, auto_sleep_after=-1.0)

    def test_no_watchdog_without_threshold(self, sim):
        disk = SimDisk(sim, SPEC)
        sim.run(until=disk.submit(1 * MB).done)
        sim.run(until=sim.now + 1000.0)
        assert disk.state is DiskState.IDLE  # never slept


class TestSetIdleThreshold:
    """Edge cases of retargeting the idle timer (the online controller's
    knob): no-timer and negative inputs reject, zero is a legal "sleep
    as soon as idle", and a countdown already running keeps its original
    deadline so only the *next* idle period sees the new value."""

    def test_rejected_without_idle_timer(self, sim):
        disk = SimDisk(sim, SPEC)
        with pytest.raises(ValueError, match="no idle timer"):
            disk.set_idle_threshold(1.0)

    def test_negative_rejected(self, sim):
        disk = SimDisk(sim, SPEC, auto_sleep_after=5.0)
        with pytest.raises(ValueError):
            disk.set_idle_threshold(-0.001)
        assert disk.auto_sleep_after == 5.0  # unchanged after the reject

    def test_integer_input_is_stored_as_float(self, sim):
        disk = SimDisk(sim, SPEC, auto_sleep_after=5.0)
        disk.set_idle_threshold(2)
        assert isinstance(disk.auto_sleep_after, float)
        assert disk.auto_sleep_after == 2.0

    def test_zero_threshold_sleeps_as_soon_as_idle(self, sim):
        disk = SimDisk(sim, SPEC, auto_sleep_after=5.0)
        req = disk.submit(1 * MB)
        disk.set_idle_threshold(0)  # retarget while in flight
        sim.run(until=req.done)
        sim.run(until=sim.now + SPEC.spindown_s + 0.01)
        assert disk.state is DiskState.STANDBY

    def test_running_countdown_keeps_its_original_deadline(self, sim):
        disk = SimDisk(sim, SPEC, auto_sleep_after=5.0)
        sim.run(until=disk.submit(1 * MB).done)
        sim.run(until=sim.now + 1.0)
        disk.set_idle_threshold(0.5)  # 0.5 s already elapsed idle
        sim.run(until=sim.now + 1.0 + SPEC.spindown_s)
        # Were the new threshold applied retroactively the disk would be
        # asleep by now; the armed 5.0 s countdown holds.
        assert disk.state is DiskState.IDLE
        sim.run(until=sim.now + 3.0 + SPEC.spindown_s + 0.01)
        assert disk.state is DiskState.STANDBY

    def test_new_threshold_governs_the_next_idle_period(self, sim):
        disk = SimDisk(sim, SPEC, auto_sleep_after=0.5)
        req = disk.submit(1 * MB)
        disk.set_idle_threshold(3.0)
        sim.run(until=req.done)
        sim.run(until=sim.now + 2.9)
        assert disk.state is DiskState.IDLE  # old 0.5 s is history
        sim.run(until=sim.now + 0.2 + SPEC.spindown_s)
        assert disk.state is DiskState.STANDBY


class TestValidation:
    def test_negative_request_size_rejected(self, sim):
        disk = SimDisk(sim, SPEC)
        with pytest.raises(ValueError):
            disk.submit(-1)
