"""Unit tests for Mailbox and the one-slot wire runs serialise on."""

import pytest

from repro.net import Link
from repro.sim import Mailbox, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    """The one-slot resource runs use is a :class:`Link` wire, claimed
    with ``acquire`` and freed with ``release``."""

    def test_serial_service_is_fifo(self, sim):
        link = Link(sim, bandwidth_bps=1.0)
        order = []

        def granted(tag):
            order.append((tag, sim.now))
            sim.call_later(2.0, lambda _value: link.release())

        for tag in "abc":
            link.acquire(lambda _value, tag=tag: granted(tag))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0), ("c", 4.0)]


class TestStore:
    """The simulator's item store is the single-consumer :class:`Mailbox`."""

    def test_put_get_fifo(self, sim):
        box = Mailbox(sim)
        got = []

        def consume(item):
            got.append(item)
            if len(got) < 3:
                box.take(consume)

        for item in "xyz":
            box.put(item)
        box.take(consume)
        sim.run()
        assert got == ["x", "y", "z"]

    def test_get_blocks_until_item(self, sim):
        box = Mailbox(sim)
        got = []

        def consume(item):
            got.append(item)
            got.append(sim.now)

        box.take(consume)
        sim.call_later(3.0, box.put, "late")
        sim.run()
        assert got == ["late", 3.0]

    def test_second_parked_consumer_is_rejected(self, sim):
        box = Mailbox(sim)
        box.take(lambda item: None)
        with pytest.raises(RuntimeError, match="already parked"):
            box.take(lambda item: None)

    def test_put_runs_then_before_the_parked_consumer(self, sim):
        box = Mailbox(sim)
        order = []
        box.take(lambda item: order.append(("consumer", item)))
        box.put("m", then=lambda item: order.append(("then", item)))
        sim.run()
        assert order == [("then", "m"), ("consumer", "m")]
        # A put nobody follows up still holds its slot, then hands over.
        assert sim.events_processed == 2

    def test_take_of_a_buffered_item_is_one_event(self, sim):
        box = Mailbox(sim)
        box.put("a")
        sim.run()
        got = []
        box.take(got.append)
        assert got == []  # scheduled, not called inline
        sim.run()
        assert got == ["a"]
        assert box.items == []
        assert sim.events_processed == 2
