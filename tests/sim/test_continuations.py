"""Continuation dispatch: call_soon/call_later, lanes, entry layout, hooks.

The engine's hot path schedules plain callables through per-priority
zero-delay lanes; the schedule entry itself is the continuation.  These
tests pin the contract the converted request path relies on: the
``(time, priority, seq)`` total order across the lane/heap split, the
run(until=...) stop semantics when a batch of same-timestamp events is
pending, the entry layout, and hooks observing the exact dispatch
stream.
"""

import pytest

from repro.sim.engine import Continuation, Simulator
from repro.sim.events import Event, NORMAL, URGENT


def test_call_soon_runs_at_current_time_in_fifo_order():
    sim = Simulator()
    order = []
    sim.call_soon(lambda v: order.append(("a", sim.now)))
    sim.call_soon(lambda v: order.append(("b", sim.now)))
    sim.run()
    assert order == [("a", 0.0), ("b", 0.0)]


def test_call_soon_value_is_passed_through():
    sim = Simulator()
    seen = []
    sim.call_soon(seen.append, value={"k": 1})
    sim.run()
    assert seen == [{"k": 1}]


def test_priority_lanes_order_same_timestamp_batch():
    # A same-timestamp batch drains URGENT before NORMAL, FIFO within
    # each lane, regardless of submission order.
    sim = Simulator()
    order = []
    sim.call_soon(lambda v: order.append("normal-1"), priority=NORMAL)
    sim.call_soon(lambda v: order.append("urgent-1"), priority=URGENT)
    sim.call_soon(lambda v: order.append("normal-2"), priority=NORMAL)
    sim.call_soon(lambda v: order.append("urgent-2"), priority=URGENT)
    sim.run()
    assert order == ["urgent-1", "urgent-2", "normal-1", "normal-2"]


def test_call_later_advances_clock_and_rejects_negative_delay():
    sim = Simulator()
    at = []
    sim.call_later(2.5, lambda v: at.append(sim.now))
    sim.call_later(1.0, lambda v: at.append(sim.now))
    sim.run()
    assert at == [1.0, 2.5]
    with pytest.raises(ValueError):
        sim.call_later(-0.1, lambda v: None)


def test_heap_and_lane_merge_preserves_seq_order_at_equal_time():
    # Two timers land at t=1; the first one's handler schedules a
    # zero-delay continuation.  The second timer carries a smaller seq
    # than the new lane entry, so it must dispatch first even though the
    # lane is non-empty.
    sim = Simulator()
    order = []
    sim.call_later(1.0, lambda v: (order.append("t1"), sim.call_soon(lambda w: order.append("soon"))))
    sim.call_later(1.0, lambda v: order.append("t2"))
    sim.run()
    assert order == ["t1", "t2", "soon"]


def test_schedule_entries_carry_their_dispatch():
    # A lane entry is (seq, fn, arg), a heap entry (time, priority, seq,
    # fn, arg); fn is None for an event, which rides in arg.
    sim = Simulator()

    def fn(value):
        return None

    sim.call_soon(fn, "now", priority=URGENT)
    sim.call_later(2.0, fn, "later")
    event = Event(sim).succeed("done")
    timer = Event(sim)
    sim.schedule(timer, delay=1.0)
    assert list(sim._lanes[URGENT]) == [(0, fn, "now")]
    assert list(sim._lanes[NORMAL]) == [(2, None, event)]
    assert sorted(sim._heap) == [(1.0, NORMAL, 3, None, timer), (2.0, NORMAL, 1, fn, "later")]
    sim.run()
    assert sim.events_processed == 4
    assert sim.queue_size == 0


def test_continuation_exception_surfaces_from_run():
    sim = Simulator()

    def boom(v):
        raise RuntimeError("continuation failed")

    sim.call_soon(boom)
    with pytest.raises(RuntimeError, match="continuation failed"):
        sim.run()


def test_run_until_excludes_boundary_batch():
    # run(until=t) is exclusive of t: the stop event is URGENT at t, so
    # a batch of NORMAL events landing exactly at t stays queued.
    sim = Simulator()
    fired = []
    for tag in ("a", "b"):
        sim.call_later(5.0, lambda v, tag=tag: fired.append(tag))
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert fired == []
    sim.run()
    assert fired == ["a", "b"]  # batch drains in seq order afterwards


def test_run_until_now_leaves_pending_batch_queued():
    # until == now puts the stop in the URGENT lane: it beats the
    # already-queued NORMAL batch at the same timestamp.
    sim = Simulator()
    fired = []
    sim.call_soon(lambda v: fired.append("x"))
    sim.call_soon(lambda v: fired.append("y"))
    sim.run(until=sim.now)
    assert fired == []
    sim.run()
    assert fired == ["x", "y"]


def test_run_until_reaches_deadline_when_schedule_drains_early():
    sim = Simulator()
    sim.call_later(1.0, lambda v: None)
    assert sim.run(until=10.0) is None
    assert sim.now == 10.0  # deadline still reached; clock advances to it


def test_stale_stop_event_is_cleaned_up_after_escaping_exception():
    # An exception escaping a continuation aborts run() with the
    # internal deadline event still scheduled.  The finally block must
    # pull it back out -- a later run() must neither jump the clock to
    # the abandoned deadline nor trip over the stale entry.
    sim = Simulator()

    def boom(v):
        raise RuntimeError("abort mid-run")

    sim.call_later(1.0, boom)
    with pytest.raises(RuntimeError, match="abort mid-run"):
        sim.run(until=10.0)
    assert sim.now == 1.0
    assert sim.queue_size == 0
    sim.run()  # nothing left; must not raise or advance to 10.0
    assert sim.now == 1.0


def test_hooks_observe_continuations_in_dispatch_order():
    sim = Simulator()
    hooked = []
    sim.add_event_hook(lambda now, event: hooked.append((now, type(event).__name__)))
    seen = []
    sim.add_event_hook(
        lambda now, event: seen.append((event.sim, event._ok, event.value))
        if isinstance(event, Continuation)
        else None
    )
    ran = []
    sim.call_soon(lambda v: ran.append("soon"))
    sim.call_later(1.0, lambda v: ran.append("later"))
    sim.schedule(Event(sim), delay=1.0)
    sim.run()
    assert ran == ["soon", "later"]
    assert hooked == [
        (0.0, "Continuation"),
        (1.0, "Continuation"),
        (1.0, "Event"),
    ]
    # The view a hook sees: a succeeded event on this simulator whose
    # value is the continuation's argument.
    assert seen == [(sim, True, None), (sim, True, None)]


def test_multiple_hooks_fire_in_installation_order_per_event():
    sim = Simulator()
    log = []
    sim.add_event_hook(lambda now, event: log.append("first"))
    sim.add_event_hook(lambda now, event: log.append("second"))
    sim.call_soon(lambda v: None)
    sim.call_soon(lambda v: None)
    sim.run()
    assert log == ["first", "second", "first", "second"]


def test_hooked_and_unhooked_runs_dispatch_identically():
    # Hooks reroute the run loop through step(); the user-visible
    # execution order must not change.
    def scenario(sim):
        order = []
        sim.call_soon(lambda v: order.append("u"), priority=URGENT)
        sim.call_later(0.5, lambda v: order.append("timer"))
        sim.call_soon(lambda v: (order.append("n"), sim.call_soon(lambda w: order.append("nested"))))
        done = Event(sim)
        done.callbacks.append(lambda e: order.append("event"))
        done.succeed(None)
        return order

    plain = Simulator()
    plain_order = scenario(plain)
    plain.run()

    observed = Simulator()
    observed.add_event_hook(lambda now, event: None)
    observed_order = scenario(observed)
    observed.run()

    assert plain_order == observed_order
    assert plain.events_processed == observed.events_processed
