"""Unit tests for processes."""

import pytest

from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_process_requires_generator(sim):
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_process_return_value(sim):
    def proc():
        yield sim.timeout(1.0)
        return {"answer": 42}

    p = sim.process(proc())
    sim.run()
    assert p.value == {"answer": 42}


def test_process_is_alive_until_done(sim):
    def proc():
        yield sim.timeout(2.0)

    p = sim.process(proc())
    assert p.is_alive
    sim.run(until=1.0)
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_yield_non_event_is_type_error(sim):
    caught = []

    def proc():
        try:
            yield "not an event"
        except TypeError as exc:
            caught.append(str(exc))

    sim.process(proc())
    sim.run()
    assert caught and "non-event" in caught[0]


def test_yield_foreign_event_is_value_error(sim):
    other = Simulator()
    caught = []

    def proc():
        try:
            yield other.timeout(1.0)
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(proc())
    sim.run()
    assert caught and "different simulator" in caught[0]


def test_process_name_defaults_to_generator_name(sim):
    def my_worker():
        yield sim.timeout(1.0)

    p = sim.process(my_worker())
    assert p.name == "my_worker"
    sim.run()


class TestProcessesWaitingOnProcesses:
    def test_fan_in(self, sim):
        def leaf(duration, value):
            yield sim.timeout(duration)
            return value

        def root():
            procs = [sim.process(leaf(d, d * 10)) for d in (1.0, 2.0, 3.0)]
            yield sim.all_of(procs)
            return [p.value for p in procs]

        p = sim.process(root())
        sim.run()
        assert p.value == [10.0, 20.0, 30.0]
        assert sim.now == 3.0

    def test_exception_from_awaited_process_propagates(self, sim):
        def leaf():
            yield sim.timeout(1.0)
            raise KeyError("gone")

        def root():
            try:
                yield sim.process(leaf())
            except KeyError:
                return "handled"

        p = sim.process(root())
        sim.run()
        assert p.value == "handled"
