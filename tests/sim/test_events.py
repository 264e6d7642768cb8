"""Unit tests for events, timeouts and the ``AllOf`` countdown."""

import pytest

from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(RuntimeError):
            sim.event().value

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed("v")
        assert ev.triggered
        assert ev.ok
        assert ev.value == "v"

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(ValueError("x"))
        ev.defuse()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_processed_after_run(self, sim):
        ev = sim.event()
        ev.succeed()
        sim.run()
        assert ev.processed


class TestTimeout:
    def test_timeout_carries_value(self, sim):
        got = []

        def proc():
            got.append((yield sim.timeout(1.0, value="hello")))

        sim.process(proc())
        sim.run()
        assert got == ["hello"]

    def test_timeout_ordering_at_same_instant_is_fifo(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(2.0)
            order.append(tag)

        sim.process(proc(1))
        sim.process(proc(2))
        sim.run()
        assert order == [1, 2]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        results = []

        def proc():
            a = sim.timeout(1.0, "a")
            b = sim.timeout(3.0, "b")
            value = yield sim.all_of([a, b])
            results.append((sim.now, value, a.processed, b.processed))

        sim.process(proc())
        sim.run()
        assert results == [(3.0, None, True, True)]

    def test_empty_all_of_succeeds_immediately(self, sim):
        done = []

        def proc():
            yield sim.all_of([])
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [0.0]

    def test_condition_over_already_processed_events(self, sim):
        def proc():
            t = sim.timeout(1.0, "x")
            yield t
            # t is processed now; a condition over it resolves immediately.
            value = yield sim.all_of([t])
            return sim.now, value

        p = sim.process(proc())
        sim.run()
        assert p.value == (1.0, None)

    def test_child_failure_propagates_through_condition(self, sim):
        def failer():
            yield sim.timeout(1.0)
            raise ValueError("child died")

        def proc():
            child = sim.process(failer())
            other = sim.timeout(10.0)
            try:
                yield sim.all_of([child, other])
            except ValueError as exc:
                return f"caught {exc}"

        p = sim.process(proc())
        sim.run()
        assert p.value == "caught child died"

    def test_later_child_failure_is_absorbed_by_decided_condition(self, sim):
        first, second = sim.event(), sim.event()

        def proc():
            try:
                yield sim.all_of([first, second])
            except ValueError as exc:
                return str(exc)

        p = sim.process(proc())
        first.fail(ValueError("first"))
        sim.run()
        second.fail(ValueError("second"))
        sim.run()  # the condition is second's waiter: nothing surfaces
        assert p.value == "first"
        assert second.processed and second._defused

    def test_events_from_different_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            sim.all_of([sim.event(), other.event()])
