"""Property-based tests for the simulation kernel (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, TallyStat


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_events_always_process_in_time_order(delays):
    sim = Simulator()
    seen = []
    for d in delays:
        sim.call_later(d, lambda _value: seen.append(sim.now))
    sim.run()
    assert seen == sorted(delays)
    assert sim.now == max(delays)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_clock_never_moves_backwards(jobs):
    sim = Simulator()
    timestamps = []

    def started(hold):
        timestamps.append(sim.now)
        sim.call_later(hold, lambda _value: timestamps.append(sim.now))

    for start, hold in jobs:
        sim.call_later(start, started, hold)
    sim.run()
    assert timestamps == sorted(timestamps)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=25))
def test_resource_conserves_grants(holds):
    """Every claim on a contended wire is granted exactly once, in
    arrival order, to one holder at a time, and the wire is free at the
    end."""
    from repro.net import Link

    sim = Simulator()
    wire = Link(sim, bandwidth_bps=1.0)
    in_service = [0]
    max_in_service = [0]
    grants = []

    def claim(index):
        def granted(_value):
            grants.append(index)
            in_service[0] += 1
            max_in_service[0] = max(max_in_service[0], in_service[0])
            sim.call_later(holds[index], released)

        def released(_value):
            in_service[0] -= 1
            wire.release()

        wire.acquire(granted)

    for index in range(len(holds)):
        claim(index)
    sim.run()
    assert grants == list(range(len(holds)))
    assert max_in_service[0] == 1
    assert math.isclose(sim.now, sum(holds), rel_tol=1e-9)
    # Free again: a new claim is granted without the clock moving.
    end = sim.now
    late = []
    wire.acquire(late.append)
    sim.run()
    assert late == [None]
    assert sim.now == end


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50),
    st.sampled_from([0.0, 0.5, 1.0]),
)
def test_store_preserves_all_items(items, consume_s):
    # A producer puts one item per second into a Mailbox; the consumer
    # spends consume_s on each, so items both buffer and meet a parked
    # consumer.
    from repro.sim import Mailbox

    sim = Simulator()
    box = Mailbox(sim)
    received = []

    def consume(item):
        received.append(item)
        if len(received) < len(items):
            sim.call_later(consume_s, lambda _: box.take(consume))

    for index, item in enumerate(items):
        sim.call_later(0.75 * index, box.put, item)
    box.take(consume)
    sim.run()
    assert received == list(items)
    assert box.items == []


@given(
    st.lists(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_tally_matches_batch_statistics(values):
    t = TallyStat()
    for value in values:
        t.record(value)
    n = len(values)
    assert t.count == n
    # Streaming mean vs batch mean.
    assert math.isclose(t.mean, sum(values) / n, rel_tol=1e-9, abs_tol=1e-6)
    assert t.minimum == min(values)
    assert t.maximum == max(values)
    if n >= 2:
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        assert math.isclose(t.variance, var, rel_tol=1e-6, abs_tol=1e-6)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=20))
def test_rng_streams_reproducible_for_any_name(seed, name):
    from repro.sim import RandomStreams

    import numpy as np

    a = RandomStreams(seed=seed).stream(name).random(10)
    b = RandomStreams(seed=seed).stream(name).random(10)
    assert np.array_equal(a, b)
