"""Unit tests for the storage-node power manager."""

import math

import pytest

from repro.core.power import PowerManager
from repro.disk import ATA_80GB_TYPE1, DiskState, SimDisk
from repro.sim import Simulator

SPEC = ATA_80GB_TYPE1
MB = 1024 * 1024


def make(sim, n_disks=2, **kwargs):
    disks = [SimDisk(sim, SPEC, name=f"d{i}") for i in range(n_disks)]
    kwargs.setdefault("idle_threshold_s", 5.0)
    return disks, PowerManager(sim, disks, **kwargs)


@pytest.fixture
def sim():
    return Simulator()


class TestConstruction:
    def test_negative_threshold_rejected(self, sim):
        with pytest.raises(ValueError):
            make(sim, idle_threshold_s=-1)

    def test_unknown_predictor_rejected(self, sim):
        with pytest.raises(ValueError):
            make(sim, predictor="crystal-ball")

    def test_disabled_until_hints(self, sim):
        _, pm = make(sim)
        assert not pm.enabled
        assert pm.evaluate(0) is False


class TestSetHints:
    def test_wrong_disk_count_rejected(self, sim):
        _, pm = make(sim, n_disks=2)
        with pytest.raises(ValueError):
            pm.set_hints([[1.0]])

    def test_unsorted_times_rejected(self, sim):
        _, pm = make(sim, n_disks=1)
        with pytest.raises(ValueError):
            pm.set_hints([[5.0, 1.0]], [[0, 1]])

    def test_seq_length_mismatch_rejected(self, sim):
        _, pm = make(sim, n_disks=1)
        with pytest.raises(ValueError):
            pm.set_hints([[1.0, 2.0]], [[0]])

    def test_sequence_predictor_requires_seqs(self, sim):
        _, pm = make(sim, n_disks=1, predictor="sequence")
        with pytest.raises(ValueError):
            pm.set_hints([[1.0]])

    def test_empty_hints_sleep_everything(self, sim):
        """No future accesses at all: every disk sleeps immediately --
        the 'disks sleep at the beginning of the trace' regime (§VI-A)."""
        disks, pm = make(sim, n_disks=2)
        pm.set_hints([[], []], [[], []])
        sim.run(until=SPEC.spindown_s + 0.1)
        assert all(d.state is DiskState.STANDBY for d in disks)
        assert pm.sleeps_initiated == 2


class TestTimePredictor:
    def test_sleeps_when_window_clears_threshold(self, sim):
        disks, pm = make(sim, n_disks=1, predictor="time")
        pm.set_hints([[100.0]])
        sim.run(until=2.0)
        assert disks[0].state is DiskState.STANDBY

    def test_does_not_sleep_short_window(self, sim):
        disks, pm = make(sim, n_disks=1, predictor="time")
        pm.set_hints([[3.0]])  # below the 5 s threshold
        sim.run(until=2.0)
        assert disks[0].state is DiskState.IDLE

    def test_window_shrinks_as_time_passes(self, sim):
        disks, pm = make(sim, n_disks=1, predictor="time")
        pm.set_hints([[20.0]])
        assert pm.predicted_window_s(0) == pytest.approx(20.0)
        sim.run(until=15.0)
        assert pm.predicted_window_s(0) == pytest.approx(5.0)

    def test_wake_ahead_times_the_spinup(self, sim):
        disks, pm = make(sim, n_disks=1, predictor="time", wake_ahead=True)
        pm.set_hints([[60.0]])
        sim.run(until=60.0)
        # The disk must have begun (or finished) waking by the access time.
        assert disks[0].state in (DiskState.SPIN_UP, DiskState.IDLE)


class TestSequencePredictor:
    def test_window_is_lookahead_times_gap(self, sim):
        _, pm = make(sim, n_disks=1)
        pm.set_hints([[7.0]], [[10]], hint_gap_s=0.7)
        # 10 requests ahead at 0.7 s each.
        assert pm.predicted_window_s(0) == pytest.approx(7.0)

    def test_window_shrinks_with_arrivals(self, sim):
        _, pm = make(sim, n_disks=1)
        pm.set_hints([[7.0]], [[10]], hint_gap_s=0.7)
        for _ in range(4):
            pm.note_node_arrival()
        # EWMA now tracks observed gaps (all zero-time here), so the
        # prediction collapses toward zero -- drift-adaptive by design.
        assert pm.predicted_window_s(0) < 7.0

    def test_no_pace_information_is_conservative(self, sim):
        _, pm = make(sim, n_disks=1)
        pm.set_hints([[7.0]], [[10]], hint_gap_s=None)
        assert pm.predicted_window_s(0) == 0.0

    def test_exhausted_pattern_is_infinite_window(self, sim):
        _, pm = make(sim, n_disks=1)
        pm.set_hints([[]], [[]])
        assert math.isinf(pm.predicted_window_s(0))

    def test_ewma_tracks_drift(self, sim):
        _, pm = make(sim, n_disks=1)
        pm.set_hints([[100.0]], [[50]], hint_gap_s=0.1)
        for _ in range(30):
            sim.run(until=sim.now + 2.0)  # actual pace: 2 s, not 0.1 s
            pm.note_node_arrival()
        # Window estimate must reflect the observed 2 s pace.
        assert pm.predicted_window_s(0) == pytest.approx((50 - 30) * 2.0, rel=0.2)

    def test_note_arrival_pops_both_queues(self, sim):
        _, pm = make(sim, n_disks=1)
        pm.set_hints([[1.0, 2.0]], [[3, 7]], hint_gap_s=1.0)
        pm.note_arrival(0)
        assert pm.next_access_time(0) == 2.0


class TestEvaluate:
    def test_busy_disk_never_slept(self, sim):
        disks, pm = make(sim, n_disks=1)
        pm.set_hints([[]], [[]])
        disks[0].submit(50 * MB)
        assert pm.evaluate(0) is False
        sim.run(until=0.5)

    def test_evaluate_all_excludes_target(self, sim):
        disks, pm = make(sim, n_disks=2)
        pm.set_hints([[], []], [[], []])
        # Re-arm: both disks would sleep; exclusion must keep disk 0 awake.
        disks_, pm2 = make(sim, n_disks=2)
        pm2._enabled = True
        pm2._future_seqs = [pm2._future_seqs[0], pm2._future_seqs[1]]
        pm2.evaluate_all(exclude=(0,))
        assert disks_[0].state is DiskState.IDLE

    def test_disable_stops_decisions(self, sim):
        disks, pm = make(sim, n_disks=1)
        pm.set_hints([[]], [[]])
        pm.disable()
        assert pm.evaluate(0) is False


class TestSequenceWakeAhead:
    def test_wake_fires_by_sequence_count(self, sim):
        disks, pm = make(sim, n_disks=1, wake_ahead=True)
        # Next access for disk 0 is the 10th node request; pace 1 s.
        pm.set_hints([[10.0]], [[10]], hint_gap_s=1.0)
        sim.run(until=SPEC.spindown_s + 0.1)
        assert disks[0].state is DiskState.STANDBY
        # Feed node arrivals at the predicted pace.
        for _ in range(9):
            sim.run(until=sim.now + 1.0)
            pm.note_node_arrival()
        # Wake must have been triggered `lead` arrivals early.
        assert disks[0].state in (DiskState.SPIN_UP, DiskState.IDLE)
        sim.run()
        assert pm.wakeaheads_scheduled == 1
