"""Runtime determinism sanitizer: same seed => identical event streams.

The model under test is a real disk workload (a :class:`SimDisk` fed
request sizes and gaps from a seeded generator), not a toy timeout loop,
so the digest covers spin-ups, queueing, and service completions.
"""

import numpy as np
import pytest

from repro.devtools.sanitizer import (
    assert_deterministic,
    DeterminismError,
    digest_run,
    EventStreamHasher,
    ScheduleShapeHasher,
)
from repro.disk import ATA_80GB_TYPE1, SimDisk
from repro.net import Link
from repro.sim import Simulator
from repro.sim.events import Event


def disk_model(seed):
    """A fresh simulator running a seeded random workload against one disk."""

    def build():
        sim = Simulator()
        disk = SimDisk(sim, ATA_80GB_TYPE1, auto_sleep_after=2.0)
        rng = np.random.default_rng(seed)

        def sleep_then_submit(left):
            # A closed-loop client: sleep, submit, wait for it, repeat.
            if left:
                sim.call_later(float(rng.exponential(1.0)), submit, left)

        def submit(left):
            request = disk.submit(int(rng.integers(1, 1 << 20)))
            request.done.callbacks.append(lambda _event: sleep_then_submit(left - 1))

        sleep_then_submit(50)
        return sim

    return build


def test_same_seed_runs_are_identical():
    digest = assert_deterministic(disk_model(seed=7), runs=3, label="disk-model")
    assert len(digest) == 32  # blake2b(digest_size=16) hex


def test_different_seeds_diverge():
    digest_a, count_a = digest_run(disk_model(seed=7))
    digest_b, count_b = digest_run(disk_model(seed=8))
    assert count_a > 100  # the workload actually exercised the engine
    assert count_b > 100
    assert digest_a != digest_b


def test_nondeterministic_model_is_caught():
    # Deliberately leak state across builds: each run serves one more
    # request than the last, so the event streams cannot match.
    calls = []

    def build():
        calls.append(None)
        sim = Simulator()
        disk = SimDisk(sim, ATA_80GB_TYPE1)

        def submit(left):
            if left:
                disk.submit(4096).done.callbacks.append(lambda _event: submit(left - 1))

        submit(len(calls))
        return sim

    with pytest.raises(DeterminismError, match="run 2 diverged"):
        assert_deterministic(build, runs=2, label="leaky")


def _ticker(sim, ticks=5):
    """A timer firing once a second, *ticks* times."""

    def tick(left):
        if left:
            sim.call_later(1.0, tick, left - 1)

    tick(ticks)


def test_hasher_detaches_cleanly():
    sim = Simulator()
    _ticker(sim)
    hasher = EventStreamHasher().attach(sim)
    sim.run(until=2.5)
    mid = hasher.events_hashed
    assert mid > 0
    hasher.detach(sim)
    sim.run()  # unobserved tail: hook removed, hot loop resumes
    assert hasher.events_hashed == mid
    assert hasher.hexdigest() == hasher.hexdigest()  # non-destructive


def test_hasher_coexists_with_other_hooks():
    # Multi-hook engine API: a hasher and a second observer both see
    # every event, and detaching the hasher leaves the other installed.
    sim = Simulator()
    seen = []
    _ticker(sim)
    hasher = EventStreamHasher().attach(sim)
    sim.add_event_hook(lambda now, event: seen.append(now))
    sim.run()
    assert hasher.events_hashed == len(seen) > 0
    hasher.detach(sim)
    hashed = hasher.events_hashed
    _ticker(sim)
    sim.run()
    assert hasher.events_hashed == hashed
    assert len(seen) > hashed


def test_requires_at_least_two_runs():
    with pytest.raises(ValueError):
        assert_deterministic(disk_model(seed=1), runs=1)


# -- schedule shape: same slots digest equal, whatever carries them -------------------


def _shapes(build):
    """(shape digest, typed digest) of the model *build* schedules."""
    sim = Simulator()
    shape = ScheduleShapeHasher().attach(sim)
    typed = EventStreamHasher().attach(sim)
    build(sim)
    sim.run()
    return shape.hexdigest(), typed.hexdigest()


def _event_ticks(sim):
    """Kick-off, three timers and a completion, each an :class:`Event`
    whose callback schedules the next."""
    left = [3]

    def tick(_event):
        event = Event(sim)
        if left[0]:
            left[0] -= 1
            event.callbacks.append(tick)
            sim.schedule(event, delay=1.0)
        else:
            event.succeed()

    kickoff = Event(sim)
    kickoff.callbacks.append(tick)
    kickoff.succeed()


def _callback_ticks(sim, delays=(1.0, 1.0, 1.0), finish=1):
    """The same slots as :func:`_event_ticks` from continuations;
    *delays* and *finish* (completion events) let a test move, drop or
    add one."""
    left = list(delays)

    def tick(_value):
        if left:
            sim.call_later(left.pop(0), tick)
        else:
            for _ in range(finish):
                Event(sim).succeed()

    sim.call_soon(tick)


def test_shape_ignores_the_carrier_of_each_slot():
    events, callback = _shapes(_event_ticks), _shapes(_callback_ticks)
    assert events[0] == callback[0]
    assert events[1] != callback[1]  # the typed stream does see it


def test_shape_equal_for_a_request_grant_and_a_link_grant():
    # Three senders queue for one wire; each holds it for 1 s.  A
    # request is an event succeeded when the wire is its holder's.
    def by_request(sim):
        waiting = []

        def release(_value):
            if waiting:
                waiting.pop(0).succeed()

        def granted(_request):
            sim.call_later(1.0, release)

        for index in range(3):
            request = Event(sim)
            request.callbacks.append(granted)
            if index == 0:
                request.succeed()
            else:
                waiting.append(request)

    def by_link(sim):
        link = Link(sim, bandwidth_bps=1.0)

        def granted(_value):
            sim.call_later(1.0, lambda _value: link.release())

        for _ in range(3):
            link.acquire(granted)

    assert _shapes(by_request)[0] == _shapes(by_link)[0]


@pytest.mark.parametrize(
    "change",
    [
        {"delays": (1.0, 1.5, 1.0)},  # one event moved in time
        {"delays": (1.0, 1.0)},  # one event dropped
        {"finish": 2},  # one event added
        {"finish": 0},  # the completion dropped
    ],
    ids=["moved", "dropped", "added", "no-completion"],
)
def test_shape_sees_moved_dropped_and_added_events(change):
    reference = _shapes(_event_ticks)[0]
    assert _shapes(lambda sim: _callback_ticks(sim, **change))[0] != reference


def test_shape_sees_an_outcome_flip():
    def outcome(ok):
        def build(sim):
            event = Event(sim)
            if ok:
                event.succeed()
            else:
                event.fail(ValueError("x"))
                event.defuse()

        return build

    assert _shapes(outcome(True))[0] != _shapes(outcome(False))[0]
