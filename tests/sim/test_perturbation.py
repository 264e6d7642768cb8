"""The chaos scheduler: legal reorderings, reproducibility, barriers.

``Simulator.set_lane_perturbation`` may pick *any* member of a
same-``(time, priority)`` dispatch window, but nothing else: it must
preserve the set of dispatched events, respect priorities and the heap,
never leapfrog a run's stop event, and be bit-reproducible for a seed.
"""

import pytest

from repro.sim.engine import EmptySchedule, LanePerturbation, Simulator
from repro.sim.events import Event, URGENT


def _orders(seed, n=8):
    """Dispatch order of *n* same-time continuations under *seed*."""
    sim = Simulator()
    log = []
    for i in range(n):
        sim.call_soon(log.append, i)
    if seed is not None:
        sim.set_lane_perturbation(seed)
    sim.run()
    return log


class TestLanePerturbation:
    def test_pick_is_in_range_and_reproducible(self):
        a = LanePerturbation(42)
        b = LanePerturbation(42)
        picks = [a.pick(7) for _ in range(200)]
        assert all(0 <= p < 7 for p in picks)
        assert picks == [b.pick(7) for _ in range(200)]
        assert a.picks == 200

    def test_different_seeds_differ(self):
        a = [LanePerturbation(1).pick(100) for _ in range(20)]
        b = [LanePerturbation(2).pick(100) for _ in range(20)]
        assert a != b

    def test_zero_seed_is_valid(self):
        assert 0 <= LanePerturbation(0).pick(5) < 5


class TestPerturbedDispatch:
    def test_unperturbed_order_is_fifo(self):
        assert _orders(None) == list(range(8))

    def test_perturbation_permutes_without_losing_events(self):
        log = _orders(12345)
        assert sorted(log) == list(range(8))
        assert log != list(range(8))  # seed chosen to actually reorder

    def test_same_seed_reproduces_the_exact_order(self):
        assert _orders(9) == _orders(9)

    def test_perturbation_is_a_legal_reordering_only(self):
        # Events at *different* times never cross: each batch drains
        # fully before the clock advances.
        sim = Simulator()
        log = []
        for i in range(4):
            sim.call_soon(log.append, ("t0", i))

        def later(_):
            for i in range(4):
                sim.call_soon(log.append, ("t1", i))

        sim.call_later(1.0, later)
        sim.set_lane_perturbation(77)
        sim.run()
        assert [tag for tag, _ in log] == ["t0"] * 4 + ["t1"] * 4

    def test_priorities_still_dominate(self):
        sim = Simulator()
        log = []
        for i in range(4):
            sim.call_soon(log.append, ("normal", i))
        for i in range(2):
            sim.call_soon(log.append, ("urgent", i), priority=URGENT)
        sim.set_lane_perturbation(5)
        sim.run()
        assert [tag for tag, _ in log] == ["urgent"] * 2 + ["normal"] * 4

    def test_event_hooks_see_the_perturbed_stream(self):
        sim = Simulator()
        seen = []
        sim.add_event_hook(lambda now, event: seen.append(now))
        for i in range(5):
            sim.call_soon(lambda _: None)
        sim.set_lane_perturbation(3)
        sim.run()
        assert seen == [0.0] * 5

    def test_empty_schedule_still_raises_on_step(self):
        sim = Simulator()
        sim.set_lane_perturbation(1)
        with pytest.raises(EmptySchedule):
            sim.step()


class TestStopEventBarrier:
    @pytest.mark.parametrize("seed", [1, 2, 3, 17, 99])
    def test_nothing_leapfrogs_the_stop_event(self, seed):
        # Five continuations precede the (already triggered) stop event
        # in the lane, five follow it.  Chaos may permute the first five
        # among themselves, but the run must end before any of the last
        # five -- otherwise perturbation would change *which* events a
        # bounded run processes, not just their order.
        sim = Simulator()
        log = []
        for i in range(5):
            sim.call_soon(log.append, i)
        stop = Event(sim)
        stop.succeed()
        for i in range(5, 10):
            sim.call_soon(log.append, i)
        sim.set_lane_perturbation(seed)
        sim.run(until=stop)
        assert sorted(log) == [0, 1, 2, 3, 4]

    def test_until_time_is_exact_under_perturbation(self):
        sim = Simulator()
        for i in range(6):
            sim.call_soon(lambda _: None)
        sim.call_later(2.0, lambda _: None)
        sim.set_lane_perturbation(11)
        sim.run(until=1.0)
        assert sim.now == 1.0

    def test_barrier_clears_after_the_run(self):
        sim = Simulator()
        stop = Event(sim)
        stop.succeed()
        sim.set_lane_perturbation(4)
        sim.run(until=stop)
        assert sim._stop_event is None


class TestClassWideDefaultSeed:
    def test_default_seed_installs_on_construction(self):
        previous = Simulator.default_lane_perturbation_seed
        Simulator.default_lane_perturbation_seed = 1234
        try:
            sim = Simulator()
        finally:
            Simulator.default_lane_perturbation_seed = previous
        assert sim.lane_perturbation is not None
        assert sim.lane_perturbation.seed == 1234
        assert Simulator().lane_perturbation is None

    def test_set_lane_perturbation_none_uninstalls(self):
        sim = Simulator()
        sim.set_lane_perturbation(8)
        assert sim.lane_perturbation is not None
        sim.set_lane_perturbation(None)
        assert sim.lane_perturbation is None
