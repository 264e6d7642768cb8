"""Unit tests for declarative fault schedules."""

import pytest

from repro.faults import ExponentialFaults, FaultAction, FaultSchedule
from repro.faults.schedule import DISK_FAIL, DISK_REPAIR, NODE_FAIL
from repro.sim.rng import RandomStreams


class TestFaultAction:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FaultAction(time_s=-1.0, kind=DISK_FAIL, target="node1/data0")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultAction(time_s=0.0, kind="meteor_strike", target="node1")

    def test_rejects_empty_target(self):
        with pytest.raises(ValueError):
            FaultAction(time_s=0.0, kind=DISK_FAIL, target="")

    def test_orders_by_time_first(self):
        early = FaultAction(time_s=1.0, kind=NODE_FAIL, target="node9")
        late = FaultAction(time_s=2.0, kind=DISK_FAIL, target="node1/data0")
        assert early < late


class TestBuilder:
    def test_chains_and_sorts(self):
        schedule = (
            FaultSchedule()
            .node_fail("node3", at=60.0)
            .disk_fail("node1/data0", at=10.0)
            .node_repair("node3", at=240.0)
        )
        times = [a.time_s for a in schedule.actions()]
        assert times == sorted(times)
        assert len(schedule) == 3

    def test_slow_disk_emits_restore(self):
        schedule = FaultSchedule().slow_disk(
            "node1/data0", at=5.0, factor=3.0, until=50.0
        )
        kinds = [a.kind for a in schedule.actions()]
        assert kinds == ["disk_slow", "disk_restore"]

    def test_slow_disk_validates_window_and_factor(self):
        with pytest.raises(ValueError):
            FaultSchedule().slow_disk("d", at=5.0, factor=0.5)
        with pytest.raises(ValueError):
            FaultSchedule().slow_disk("d", at=5.0, factor=2.0, until=5.0)

    def test_flaky_spinups_validates(self):
        with pytest.raises(ValueError):
            FaultSchedule().flaky_spinups("d", at=1.0, count=0)
        with pytest.raises(ValueError):
            FaultSchedule().flaky_spinups("d", at=1.0, count=1, backoff_s=-1.0)


class TestExponentialFaults:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExponentialFaults(targets=(), mtbf_s=1.0, mttr_s=None, horizon_s=1.0)
        with pytest.raises(ValueError):
            ExponentialFaults(
                targets=("d",), mtbf_s=0.0, mttr_s=None, horizon_s=1.0
            )
        with pytest.raises(ValueError):
            ExponentialFaults(targets=("d",), mtbf_s=1.0, mttr_s=None, horizon_s=0.0)

    def test_materialize_requires_streams(self):
        schedule = FaultSchedule().exponential_faults(
            ["node1/data0"], mtbf_s=10.0, horizon_s=100.0
        )
        with pytest.raises(ValueError, match="RandomStreams"):
            schedule.materialize()

    def test_materialize_alternates_fail_and_repair(self):
        schedule = FaultSchedule().exponential_faults(
            ["node1/data0"], mtbf_s=20.0, horizon_s=500.0, mttr_s=5.0
        )
        actions = schedule.materialize(RandomStreams(seed=1))
        assert actions  # horizon >> mtbf: some failures land
        per_kind = [a.kind for a in actions]
        # Strict alternation for a single target.
        for i, kind in enumerate(per_kind):
            assert kind == (DISK_FAIL if i % 2 == 0 else DISK_REPAIR)
        assert all(a.time_s < 500.0 for a in actions)

    def test_no_mttr_means_fail_once_and_stay_down(self):
        schedule = FaultSchedule().exponential_faults(
            ["node1/data0", "node2/data0"], mtbf_s=5.0, horizon_s=1000.0
        )
        actions = schedule.materialize(RandomStreams(seed=1))
        assert all(a.kind == DISK_FAIL for a in actions)
        assert len(actions) == 2  # one terminal failure per target

    def test_same_seed_same_actions(self):
        def build():
            return FaultSchedule().exponential_faults(
                ["node1/data0", "node2/data1"],
                mtbf_s=30.0,
                horizon_s=300.0,
                mttr_s=10.0,
            )

        a = build().materialize(RandomStreams(seed=7))
        b = build().materialize(RandomStreams(seed=7))
        c = build().materialize(RandomStreams(seed=8))
        assert a == b
        assert a != c

    def test_fault_stream_independent_of_workload_streams(self):
        """Drawing workload randomness first must not shift fault times."""
        fresh = RandomStreams(seed=3)
        used = RandomStreams(seed=3)
        used.stream("workload").normal(size=1000)  # consume another stream

        def build():
            return FaultSchedule().exponential_faults(
                ["node4/data2"], mtbf_s=30.0, horizon_s=300.0, mttr_s=10.0
            )

        assert build().materialize(fresh) == build().materialize(used)
