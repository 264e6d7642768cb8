"""Unit tests for events, timeouts and the ``AllOf`` countdown."""

import pytest

from repro.sim import Simulator
from repro.sim.events import AllOf, Event


@pytest.fixture
def sim():
    return Simulator()


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, sim):
        ev = Event(sim)
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(RuntimeError):
            Event(sim).value

    def test_succeed_sets_value(self, sim):
        ev = Event(sim)
        ev.succeed("v")
        assert ev.triggered
        assert ev.ok
        assert ev.value == "v"

    def test_double_succeed_raises(self, sim):
        ev = Event(sim)
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, sim):
        ev = Event(sim)
        ev.fail(ValueError("x"))
        ev.defuse()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            Event(sim).fail("not an exception")

    def test_processed_after_run(self, sim):
        ev = Event(sim)
        ev.succeed()
        sim.run()
        assert ev.processed


def _timer(sim, delay, value=None):
    """An event that succeeds with *value* after *delay* seconds."""
    event = Event(sim)
    sim.call_later(delay, event.succeed, value)
    return event


def _on(event, fn):
    """Subscribe *fn* to *event*; returns the event."""
    event.callbacks.append(fn)
    return event


class TestTimeout:
    def test_timeout_carries_value(self, sim):
        got = []
        sim.call_later(1.0, got.append, "hello")
        sim.run()
        assert got == ["hello"]

    def test_timeout_ordering_at_same_instant_is_fifo(self, sim):
        order = []
        sim.call_later(2.0, order.append, 1)
        sim.call_later(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        results = []
        a = _timer(sim, 1.0, "a")
        b = _timer(sim, 3.0, "b")
        _on(
            AllOf(sim, [a, b]),
            lambda event: results.append((sim.now, event.value, a.processed, b.processed)),
        )
        sim.run()
        assert results == [(3.0, None, True, True)]

    def test_empty_all_of_succeeds_immediately(self, sim):
        done = []
        _on(AllOf(sim, []), lambda event: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_condition_over_already_processed_events(self, sim):
        t = _timer(sim, 1.0, "x")
        got = []
        # Once t is processed, a condition over it resolves immediately.
        _on(
            t,
            lambda _event: _on(
                AllOf(sim, [t]), lambda event: got.append((sim.now, event.value))
            ),
        )
        sim.run()
        assert got == [(1.0, None)]

    def test_child_failure_propagates_through_condition(self, sim):
        child = Event(sim)
        sim.call_later(1.0, child.fail, ValueError("child died"))
        caught = []

        def handle(event):
            event.defuse()
            caught.append(f"caught {event.value}")

        _on(AllOf(sim, [child, _timer(sim, 10.0)]), handle)
        sim.run()
        assert caught == ["caught child died"]

    def test_later_child_failure_is_absorbed_by_decided_condition(self, sim):
        first, second = Event(sim), Event(sim)
        caught = []

        def handle(event):
            event.defuse()
            caught.append(str(event.value))

        _on(AllOf(sim, [first, second]), handle)
        first.fail(ValueError("first"))
        sim.run()
        second.fail(ValueError("second"))
        sim.run()  # the condition is second's waiter: nothing surfaces
        assert caught == ["first"]
        assert second.processed and second._defused

    def test_events_from_different_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            AllOf(sim, [Event(sim), Event(other)])
