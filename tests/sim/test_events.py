"""Unit tests for events, timeouts and condition events."""

import pytest

from repro.sim import Simulator
from repro.sim.events import ConditionValue


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

    def test_trigger_mirrors_other_event(self, sim):
        src = sim.event()
        src.succeed(123)
        dst = sim.event()
        dst.trigger(src)
        assert dst.value == 123
        assert dst.ok

    def test_trigger_from_untriggered_raises(self, sim):
        with pytest.raises(RuntimeError):
            sim.event().trigger(sim.event())


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
    def test_any_of_fires_on_first(self, sim):
        results = []

        def proc():
            fast = sim.timeout(1.0, "fast")
            slow = sim.timeout(5.0, "slow")
            value = yield sim.any_of([fast, slow])
            results.append((sim.now, value[fast], fast in value, slow in value))

        sim.process(proc())
        sim.run()
        t, v, has_fast, has_slow = results[0]
        assert t == 1.0
        assert v == "fast"
        assert has_fast
        assert not has_slow

    def test_all_of_waits_for_all(self, sim):
        results = []

        def proc():
            a = sim.timeout(1.0, "a")
            b = sim.timeout(3.0, "b")
            value = yield sim.all_of([a, b])
            results.append((sim.now, len(value), value[a], value[b]))

        sim.process(proc())
        sim.run()
        assert results == [(3.0, 2, "a", "b")]

    def test_operator_sugar(self, sim):
        results = []

        def proc():
            a = sim.timeout(1.0, "a")
            b = sim.timeout(2.0, "b")
            yield a | b
            results.append(sim.now)
            yield a & b
            results.append(sim.now)

        sim.process(proc())
        sim.run()
        assert results == [1.0, 2.0]

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
            return value[t]

        p = sim.process(proc())
        sim.run()
        assert p.value == "x"

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


class TestConditionValue:
    def test_dict_equality(self, sim):
        a = sim.event()
        a.succeed(1)
        cv = ConditionValue([a])
        assert cv == {a: 1}
        assert cv.todict() == {a: 1}

    def test_missing_key_raises(self, sim):
        a = sim.event()
        a.succeed(1)
        cv = ConditionValue([])
        with pytest.raises(KeyError):
            cv[a]

    def test_iteration_and_len(self, sim):
        a, b = sim.event(), sim.event()
        a.succeed(1)
        b.succeed(2)
        cv = ConditionValue([a, b])
        assert list(cv) == [a, b]
        assert len(cv) == 2
