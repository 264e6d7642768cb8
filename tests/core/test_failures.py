"""Failure-injection tests: dead disks must degrade, not crash."""

import numpy as np
import pytest

from repro.backend.ssd import SATA_SSD_32GB, SSDBackend
from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.disk import ATA_80GB_TYPE1, DiskState, SimDisk
from repro.disk.drive import DiskFailureError
from repro.faults import FaultSchedule
from repro.obs import Tracer
from repro.sim import Simulator
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import MB, SyntheticWorkload

SPEC = ATA_80GB_TYPE1
#: The default SSD at a buffer-tier size (a small FTL builds fast).
SSD_SPEC = SATA_SSD_32GB.with_overrides(capacity_bytes=32 * MB)


def _hdd(sim, auto_sleep_after=None):
    return SimDisk(sim, SPEC, name="hdd", auto_sleep_after=auto_sleep_after)


def _ssd(sim, auto_sleep_after=None):
    return SSDBackend(sim, SSD_SPEC, name="ssd", auto_sleep_after=auto_sleep_after)


def _note_outcome(done, outcomes):
    """Append ``"ok"`` or ``"failed"`` to *outcomes* when *done* is
    processed, handling a :class:`DiskFailureError`."""

    def note(event):
        if event.ok:
            outcomes.append("ok")
        else:
            assert isinstance(event.value, DiskFailureError)
            event.defuse()
            outcomes.append("failed")

    done.callbacks.append(note)


class _SharedFailureSurface:
    """Fault-surface behaviour every device model must show.

    Subclasses bind :attr:`make` to a device factory, so the same tests
    run against the spindle and the flash device.  Times are relative
    to the device's own spin-up/spin-down (DEVSLP exit/entry on flash).
    """

    def test_failed_disk_draws_no_power(self):
        sim = Simulator()
        disk = self.make(sim)
        sim.run(until=10.0)
        disk.fail()
        sim.run(until=110.0)
        disk.finalize()
        assert disk.state is DiskState.FAILED
        assert disk.energy_j() == pytest.approx(10.0 * disk.spec.power_idle_w)

    def test_submit_to_failed_disk_fails_fast(self):
        sim = Simulator()
        disk = self.make(sim)
        disk.fail()
        req = disk.submit(1 * MB)
        assert req.done.triggered and not req.done.ok
        req.done.defuse()
        sim.run()
        assert isinstance(req.done.value, DiskFailureError)
        assert "failed" in str(req.done.value)
        assert disk.inflight == 0

    def test_fail_is_idempotent(self):
        sim = Simulator()
        disk = self.make(sim)
        disk.fail()
        disk.fail()
        assert disk.state is DiskState.FAILED

    def test_fail_during_spinup_settles_cleanly(self):
        sim = Simulator()
        disk = self.make(sim)
        spec = disk.spec
        outcomes = []
        assert disk.request_sleep()
        sim.run(until=spec.spindown_s + 1.0)
        req = disk.submit(1 * MB)  # triggers a spin-up
        _note_outcome(req.done, outcomes)
        assert disk.state is DiskState.SPIN_UP
        sim.run(until=sim.now + spec.spinup_s / 2)  # mid-spin-up
        disk.fail()
        sim.run()
        assert outcomes == ["failed"]
        assert disk.state is DiskState.FAILED
        assert disk.inflight == 0

    def test_power_manager_ignores_failed_disk(self):
        from repro.core.power import PowerManager

        sim = Simulator()
        disk = self.make(sim)
        pm = PowerManager(sim, [disk], idle_threshold_s=5.0)
        disk.fail()
        pm.set_hints([[]], [[]])
        sim.run(until=1.0)
        assert disk.state is DiskState.FAILED  # no sleep attempted

    def test_fail_in_spinup_backoff_then_repair_serves_and_sleeps(self):
        sim = Simulator()
        idle_s = 1.0
        disk = self.make(sim, auto_sleep_after=idle_s)
        spec = disk.spec
        backoff_s = 3.0
        # The idle timer puts the device to sleep first.
        sim.run(until=idle_s + spec.spindown_s + 0.5)
        assert disk.state is DiskState.STANDBY
        spinups = disk.meter.spinup_count
        disk.inject_spinup_failures(1, backoff_s=backoff_s)
        doomed = disk.submit(1 * MB)
        outcomes = []
        _note_outcome(doomed.done, outcomes)
        # The failed attempt spends a full spin-up, drops back to
        # STANDBY, and then waits out the back-off; fail inside it.
        sim.run(until=sim.now + spec.spinup_s + backoff_s / 2)
        assert disk.state is DiskState.STANDBY
        assert disk.meter.spinup_count == spinups + 1  # the failed attempt
        disk.fail()
        sim.run(until=sim.now + backoff_s)  # the back-off window closes
        assert outcomes == ["failed"]
        assert disk.state is DiskState.FAILED

        disk.repair()
        assert disk.state is DiskState.STANDBY
        served = disk.submit(1 * MB)
        sim.run(until=served.done)
        assert served.done.ok
        assert disk.requests_served == 1
        # The injected failure was used up: the next spin-up succeeded.
        assert disk.meter.spinup_count == spinups + 2
        # Back to idle: the re-armed timer sleeps the device again.
        sim.run(until=sim.now + idle_s + spec.spindown_s + 0.5)
        assert disk.state is DiskState.STANDBY
        assert disk.meter.spindown_count == 2
        assert disk.inflight == 0

    def _waking(self, sim):
        """A traced device asleep, then woken: returns it, the instant its
        spin-up began, and the spin-up time."""
        sim.tracer = Tracer(sim)
        disk = self.make(sim)
        assert disk.request_sleep()
        sim.run(until=disk.spec.spindown_s + 1.0)
        start = sim.now
        assert disk.wake()
        return disk, start, disk.spec.spinup_s

    def _spinups(self, sim):
        return [span for span in sim.tracer.spans if span.kind == "spinup"]

    def test_repair_inside_a_cut_short_spinup_stays_asleep(self):
        sim = Simulator()
        disk, start, spinup_s = self._waking(sim)
        sim.run(until=start + 0.25 * spinup_s)
        disk.fail()
        sim.run(until=start + 0.75 * spinup_s)
        disk.repair()
        # The cut-short spin-up's timer fires at start + spinup_s; it must
        # leave the repaired device asleep.
        sim.run(until=start + 2.0 * spinup_s)
        assert disk.state is DiskState.STANDBY
        (span,) = self._spinups(sim)
        assert span.end_s == pytest.approx(start + 0.25 * spinup_s)
        assert span.tags["ok"] is False
        served = disk.submit(1 * MB)
        sim.run(until=served.done)
        assert served.done.ok
        assert disk.meter.spinup_count == 2  # the cut-short one, then the submit's
        assert disk.inflight == 0

    def test_wake_after_repair_inside_a_cut_short_spinup_runs_in_full(self):
        sim = Simulator()
        disk, start, spinup_s = self._waking(sim)
        sim.run(until=start + 0.25 * spinup_s)
        disk.fail()
        sim.run(until=start + 0.5 * spinup_s)
        disk.repair()
        sim.run(until=start + 0.6 * spinup_s)
        assert disk.wake()
        # The old timer fires at start + spinup_s: it must neither end the
        # new spin-up early nor settle anything twice.
        sim.run(until=start + 1.55 * spinup_s)
        assert disk.state is DiskState.SPIN_UP
        sim.run(until=start + 1.65 * spinup_s)
        assert disk.state is DiskState.IDLE
        cut, full = self._spinups(sim)
        assert cut.end_s == pytest.approx(start + 0.25 * spinup_s)
        assert cut.tags["ok"] is False
        assert full.start_s == pytest.approx(start + 0.6 * spinup_s)
        assert full.end_s == pytest.approx(start + 1.6 * spinup_s)
        assert "ok" not in full.tags


class TestDriveFailure(_SharedFailureSurface):
    make = staticmethod(_hdd)

    def test_queued_requests_fail_on_injection(self):
        # Spindle-only: the in-service request is already on the
        # platters when the drive dies (the SSD fails it instead; see
        # tests/backend/test_ssd.py).
        sim = Simulator()
        disk = SimDisk(sim, SPEC)
        outcomes = []
        # First request starts service; the rest queue behind it.
        for _ in range(3):
            _note_outcome(disk.submit(50 * MB).done, outcomes)
        sim.run(until=0.1)  # mid-service of request 1
        disk.fail()
        sim.run()
        # The in-service request completes; the two queued ones fail.
        assert sorted(outcomes) == ["failed", "failed", "ok"]


class TestSSDBackendFailure(_SharedFailureSurface):
    make = staticmethod(_ssd)


class TestClusterUnderFailure:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_synthetic_trace(
            SyntheticWorkload(n_requests=300, mu=1000),
            rng=np.random.default_rng(6),
        )

    def test_cluster_survives_data_disk_failure(self, trace):
        cluster = EEVFSCluster(
            config=EEVFSConfig(),
            faults=FaultSchedule().disk_fail("node1/data0", at=50.0),
        )
        result = cluster.run(trace)
        # Every request got *an* answer -- data or explicit failure.
        assert result.requests_total + result.requests_failed == trace.n_requests
        assert result.requests_failed > 0
        assert len(cluster.client.failures) == result.requests_failed
        assert result.fault_events == 1

    def test_prefetched_files_survive_their_data_disks(self, trace):
        """Buffer copies act as accidental replicas: reads of prefetched
        files keep succeeding after their data disk dies."""
        cluster = EEVFSCluster(
            config=EEVFSConfig(prefetch_files=70),
            faults=FaultSchedule().disk_fail("node1/data0", at=10.0),
        )
        node = cluster.nodes[0]
        cluster.run(trace)
        failed_files = {file_id for _, file_id, _ in cluster.client.failures}
        for file_id in failed_files:
            assert not node.metadata.is_prefetched(file_id)

    def test_npf_cluster_survives_failure_too(self, trace):
        cluster = EEVFSCluster(
            config=EEVFSConfig(prefetch_enabled=False),
            faults=FaultSchedule().disk_fail("node3/data1", at=30.0),
        )
        result = cluster.run(trace)
        assert result.requests_total + result.requests_failed == trace.n_requests

    def test_no_failures_without_injection(self, trace):
        result = EEVFSCluster(config=EEVFSConfig()).run(trace)
        assert result.requests_failed == 0

    def test_striped_read_over_two_failed_disks_fails_cleanly(self):
        # The first failed stripe fails the read's all_of; the second
        # one's failure arrives at an already-failed condition, which
        # must absorb it rather than let it crash the run.
        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=400), rng=np.random.default_rng(1)
        )
        cluster = EEVFSCluster(
            config=EEVFSConfig(stripe_width=2),
            seed=1,
            faults=FaultSchedule()
            .disk_fail("node1/data0", at=20.0)
            .disk_fail("node1/data1", at=21.0),
        )
        result = cluster.run(trace)
        assert (result.requests_total, result.requests_failed) == (391, 9)
        assert cluster.client.outstanding == 0
