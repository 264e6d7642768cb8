"""Injector tests: schedules applied to a live cluster, logged, and
reproducible (same seed => identical fault log)."""

import numpy as np
import pytest

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.disk import DiskState
from repro.faults import FaultInjector, FaultLog, FaultSchedule
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


def small_trace(seed=6, n_requests=150):
    return generate_synthetic_trace(
        SyntheticWorkload(n_files=80, n_requests=n_requests),
        rng=np.random.default_rng(seed),
    )


class TestResolution:
    def test_unknown_disk_rejected_before_the_run(self):
        with pytest.raises(KeyError, match="unknown disk"):
            EEVFSCluster(faults=FaultSchedule().disk_fail("node1/data99", at=1.0))

    def test_unknown_node_rejected_before_the_run(self):
        with pytest.raises(KeyError, match="unknown storage node"):
            EEVFSCluster(faults=FaultSchedule().node_fail("node99", at=1.0))

    def test_injector_cannot_start_twice(self):
        cluster = EEVFSCluster(faults=FaultSchedule().disk_fail("node1/data0", at=1.0))
        assert cluster.injector is not None
        cluster.injector.start(0.0)
        with pytest.raises(RuntimeError):
            cluster.injector.start(0.0)


class TestTimeline:
    def test_times_are_epoch_relative(self):
        """at=40 must mean 40 s into the workload, not into the sim."""
        cluster = EEVFSCluster(
            faults=FaultSchedule().disk_fail("node1/data0", at=40.0)
        )
        result = cluster.run(small_trace())
        assert result.fault_log is not None
        (record,) = result.fault_log.records
        assert record.time_s == pytest.approx(result.epoch_s + 40.0)

    def test_fail_then_repair_restores_service(self):
        schedule = (
            FaultSchedule()
            .disk_fail("node1/data0", at=5.0)
            .disk_repair("node1/data0", at=30.0)
        )
        cluster = EEVFSCluster(faults=schedule)
        cluster.run(small_trace(n_requests=300))
        disk = cluster.nodes[0].data_disks[0]
        assert disk.state is not DiskState.FAILED
        assert [r.kind for r in cluster.injector.log] == [
            "disk_fail",
            "disk_repair",
        ]

    def test_node_fail_marks_server_view_down_and_repair_up(self):
        schedule = (
            FaultSchedule().node_fail("node2", at=5.0).node_repair("node2", at=60.0)
        )
        cluster = EEVFSCluster(faults=schedule)
        cluster.run(small_trace(n_requests=200))
        assert not cluster.nodes[1].crashed
        assert cluster.server.metadata.is_live("node2")
        kinds = [r.kind for r in cluster.injector.log]
        assert kinds == ["node_fail", "node_repair"]

    def test_slow_disk_is_transient(self):
        schedule = FaultSchedule().slow_disk(
            "node1/data0", at=1.0, factor=4.0, until=20.0
        )
        cluster = EEVFSCluster(faults=schedule)
        cluster.run(small_trace())
        assert cluster.nodes[0].data_disks[0].slowdown == 1.0  # restored
        kinds = [r.kind for r in cluster.injector.log]
        assert kinds == ["disk_slow", "disk_restore"]

    def test_flaky_spinups_are_counted_and_recovered(self):
        schedule = FaultSchedule().flaky_spinups(
            "node1/data0", at=1.0, count=2, backoff_s=0.5
        )
        cluster = EEVFSCluster(faults=schedule)
        result = cluster.run(small_trace(n_requests=400))
        # The armed attempts fail (if the disk ever slept), then recover:
        # no client-visible failures either way.
        assert [(r.kind, r.target) for r in result.fault_log] == [
            ("spinup_flaky", "node1/data0")
        ]
        assert result.requests_failed == 0


class TestDeterminism:
    SCHEDULE_TARGETS = ["node1/data0", "node2/data1", "node5/data1"]

    def _run(self, seed):
        schedule = (
            FaultSchedule()
            .node_fail("node3", at=25.0)
            .node_repair("node3", at=80.0)
            .exponential_faults(
                self.SCHEDULE_TARGETS, mtbf_s=60.0, horizon_s=200.0, mttr_s=20.0
            )
        )
        cluster = EEVFSCluster(
            config=EEVFSConfig(replication_factor=2), seed=seed, faults=schedule
        )
        result = cluster.run(small_trace(n_requests=250))
        assert result.fault_log is not None
        return result.fault_log

    def test_same_seed_identical_fault_log(self):
        log_a = self._run(seed=11)
        log_b = self._run(seed=11)
        assert isinstance(log_a, FaultLog)
        assert log_a == log_b
        assert list(log_a.records) == list(log_b.records)

    def test_different_seed_different_stochastic_faults(self):
        log_a = self._run(seed=11)
        log_b = self._run(seed=12)
        assert log_a != log_b


class TestStandalone:
    def test_injector_outside_facade(self):
        """The injector works against any cluster-shaped object."""
        cluster = EEVFSCluster()
        schedule = FaultSchedule().disk_fail("node1/data0", at=0.0)
        injector = FaultInjector(cluster.sim, cluster, schedule)
        injector.start(epoch_s=0.0)
        cluster.sim.run(until=1.0)
        assert cluster.nodes[0].data_disks[0].state is DiskState.FAILED
        assert len(injector.log) == 1

    def test_render_produces_table(self):
        cluster = EEVFSCluster()
        schedule = FaultSchedule().disk_fail("node1/data0", at=0.0)
        injector = FaultInjector(cluster.sim, cluster, schedule)
        injector.start(epoch_s=0.0)
        cluster.sim.run(until=1.0)
        rendered = injector.log.render()
        assert "disk_fail" in rendered and "node1/data0" in rendered
