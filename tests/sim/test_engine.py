"""Unit tests for the simulation engine (clock, heap, run loop)."""

import ast

import pytest

from repro.sim import Simulator
from repro.sim.engine import EmptySchedule
from tests.programs import PACKAGE


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_only_the_engine_sets_the_clock():
    # `Simulator.now` is a plain attribute that the run loop writes; a
    # model that assigned it would move time behind the schedule's back.
    writers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "sim" / "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute) and leaf.attr == "now":
                        writers.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert writers == []


def _nothing(_value):
    pass


def test_timeout_advances_clock():
    sim = Simulator()
    sim.call_later(3.5, _nothing)
    sim.run()
    assert sim.now == 3.5


def test_zero_timeout_is_legal():
    sim = Simulator()
    seen = []
    sim.call_later(0.0, lambda _value: seen.append(sim.now))
    sim.run()
    assert seen == [0.0]


def test_negative_schedule_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(sim.event(), delay=-0.1)


#: Every entry point that takes a delay or a deadline, called with NaN.
NAN_ENTRY_POINTS = {
    "schedule": lambda sim: sim.schedule(sim.event(), delay=float("nan")),
    "call_later": lambda sim: sim.call_later(float("nan"), lambda _: None),
    "run-until": lambda sim: sim.run(until=float("nan")),
}


@pytest.mark.parametrize("entry", list(NAN_ENTRY_POINTS))
def test_nan_delay_rejected(entry):
    # NaN passes a `delay < 0` check; scheduled, it sends the clock to
    # NaN and back (call_later 2.0, NaN, 1.0 dispatched at 1.0, NaN, 2.0).
    sim = Simulator()
    sim.call_later(1.0, lambda _: None)
    with pytest.raises(ValueError):
        NAN_ENTRY_POINTS[entry](sim)
    assert sim.queue_size == 1
    sim.run()
    assert sim.now == 1.0


def _ticker(sim):
    """A timer that re-arms itself every second, forever."""

    def tick(_value=None):
        sim.call_later(1.0, tick)

    tick()


def test_run_until_time_stops_exactly():
    sim = Simulator()
    _ticker(sim)
    sim.run(until=10.5)
    assert sim.now == 10.5


def test_run_until_time_excludes_events_at_that_time():
    sim = Simulator()
    fired = []
    sim.call_later(5.0, lambda _value: fired.append(sim.now))
    sim.run(until=5.0)
    # The stop event is URGENT so run(until=5) does not execute the t=5 work.
    assert fired == []
    sim.run()
    assert fired == [5.0]


def test_run_until_past_raises():
    sim = Simulator()
    sim.call_later(10.0, _nothing)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_run_until_event_returns_its_value():
    sim = Simulator()
    done = sim.event()
    sim.call_later(2.0, done.succeed, "payload")
    assert sim.run(until=done) == "payload"
    assert sim.now == 2.0


def test_run_until_event_that_never_fires_returns_none():
    sim = Simulator()
    never = sim.event()
    sim.call_later(1.0, _nothing)
    assert sim.run(until=never) is None
    assert sim.now == 1.0


def test_run_to_exhaustion_returns_none():
    sim = Simulator()
    sim.call_later(1.0, _nothing)
    assert sim.run() is None


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_peek_reports_next_event_time():
    # Read through the kept paths: an empty schedule holds nothing, and
    # one step dispatches the next event at its time.
    sim = Simulator()
    assert sim.queue_size == 0
    sim.call_later(4.0, _nothing)
    assert sim.queue_size == 1
    sim.step()
    assert sim.now == 4.0
    assert sim.queue_size == 0


def test_queue_size_counts_scheduled_events():
    sim = Simulator()
    assert sim.queue_size == 0
    sim.call_later(1.0, _nothing)
    sim.schedule(sim.event(), delay=2.0)
    assert sim.queue_size == 2


def test_simultaneous_events_process_in_creation_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.call_later(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_failed_event_with_no_waiter_surfaces():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("lost"))
    with pytest.raises(ValueError, match="lost"):
        sim.run()


def test_defused_failure_does_not_surface():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("handled"))
    ev.defuse()
    sim.run()  # no raise


def test_many_events_keep_heap_order(rng_values=200):
    sim = Simulator()
    seen = []

    import random

    r = random.Random(7)
    delays = [r.uniform(0, 100) for _ in range(rng_values)]
    for d in delays:
        sim.call_later(d, lambda _value: seen.append(sim.now))
    sim.run()
    assert seen == sorted(delays)


def test_run_until_time_leaves_no_stale_stop_after_exception():
    # An exception escaping an event callback during run(until=<float>)
    # used to leave the armed deadline event in the heap; the next run()
    # would silently stop at the stale deadline instead of running to
    # exhaustion.
    sim = Simulator()

    def boom(_event):
        raise RuntimeError("boom")

    failing = sim.event()
    failing.callbacks.append(boom)
    sim.call_later(1.0, failing.succeed)
    with pytest.raises(RuntimeError):
        sim.run(until=100.0)
    assert sim.queue_size == 0  # stale stop event must be gone

    done = []
    sim.call_later(5.0, lambda _value: done.append(sim.now))
    sim.run()
    assert done == [6.0]
    assert sim.now == 6.0  # not dragged forward to the stale until=100


def test_run_until_event_never_fired_does_not_stop_later_run():
    # run(until=<Event>) that returns without the event firing used to
    # leave _stop_callback subscribed; triggering the event later would
    # abort an unrelated run() mid-flight.
    sim = Simulator()
    gate = sim.event()
    sim.call_later(1.0, _nothing)
    assert sim.run(until=gate) is None  # heap drained, gate never fired

    ticks = []

    def tick(_value):
        ticks.append(sim.now)
        if len(ticks) < 3:
            sim.call_later(1.0, tick)
        else:
            gate.succeed("late")  # must NOT stop the run below

    sim.call_later(1.0, tick)
    sim.run()
    assert ticks == [2.0, 3.0, 4.0]


def _tick(sim, n=3):
    def tick(left):
        if left:
            sim.call_later(1.0, tick, left - 1)

    tick(n)


def test_multiple_event_hooks_all_fire():
    sim = Simulator()
    first, second = [], []
    sim.add_event_hook(lambda now, event: first.append(now))
    sim.add_event_hook(lambda now, event: second.append(now))
    _tick(sim)
    sim.run()
    assert first == second
    assert len(first) == sim.events_processed > 0


def test_remove_event_hook_is_idempotent():
    sim = Simulator()
    seen = []
    hook = lambda now, event: seen.append(now)
    sim.add_event_hook(hook)
    sim.remove_event_hook(hook)
    sim.remove_event_hook(hook)  # unknown hook: no error
    _tick(sim)
    sim.run()
    assert seen == []
    assert sim.events_processed > 0


def test_duplicate_event_hook_rejected():
    sim = Simulator()
    hook = lambda now, event: None
    sim.add_event_hook(hook)
    with pytest.raises(ValueError):
        sim.add_event_hook(hook)


def test_event_hooks_fire_in_installation_order():
    sim = Simulator()
    order = []
    sim.add_event_hook(lambda now, event: order.append("a"))
    sim.add_event_hook(lambda now, event: order.append("b"))
    _tick(sim, n=1)
    sim.run()
    assert order[:2] == ["a", "b"]


def test_single_slot_hook_shim_is_gone():
    # The deprecated set_event_hook shim (which cleared every installed
    # observer) completed its removal cycle; the multi-hook API is the
    # only way in.
    assert not hasattr(Simulator, "set_event_hook")


def test_run_until_time_reusable_after_clean_stop():
    sim = Simulator()
    _ticker(sim)
    sim.run(until=3.0)
    assert sim.now == 3.0
    sim.run(until=7.0)
    assert sim.now == 7.0
    assert sim.events_processed > 0
