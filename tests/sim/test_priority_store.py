"""Tests for the keyed :class:`Mailbox` (it replaced ``PriorityStore``)
and :meth:`Mailbox.drain`."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.sim import Mailbox, Simulator


@pytest.fixture
def sim():
    return Simulator()


def _take_all(sim, box, count):
    """Take *count* items from *box*, one consumer at a time."""
    got = []

    def consume(item):
        got.append(item)
        if len(got) < count:
            box.take(consume)

    box.take(consume)
    sim.run()
    return got


class TestPriorityStore:
    def test_lowest_priority_number_first(self, sim):
        box = Mailbox(sim, priority_key=lambda x: x[0])
        box.put((2, "background"))
        box.put((0, "demand"))
        box.put((1, "prefetch"))
        got = _take_all(sim, box, 3)
        assert [item[1] for item in got] == ["demand", "prefetch", "background"]

    def test_ties_are_fifo(self, sim):
        box = Mailbox(sim, priority_key=lambda x: 0)
        for tag in "abc":
            box.put(tag)
        assert _take_all(sim, box, 3) == ["a", "b", "c"]

    def test_drain_clears_keys(self, sim):
        box = Mailbox(sim, priority_key=lambda x: x)
        box.put(5)
        box.put(1)
        assert box.drain() == [1, 5]
        assert box.items == []
        box.put(3)
        assert _take_all(sim, box, 1) == [3]


class TestStoreDrain:
    def test_drain_returns_fifo_items(self, sim):
        box = Mailbox(sim)
        box.put("a")
        box.put("b")
        assert box.drain() == ["a", "b"]
        assert box.items == []

    def test_drain_keeps_the_parked_consumer(self, sim):
        box = Mailbox(sim)
        got = []
        box.take(got.append)
        assert box.drain() == []
        box.put("after")
        sim.run()
        assert got == ["after"]


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 100)), min_size=1, max_size=40))
def test_priority_store_yields_sorted_stable(items):
    sim = Simulator()
    box = Mailbox(sim, priority_key=lambda x: x[0])
    for item in items:
        box.put(item)
    got = _take_all(sim, box, len(items))
    # Stable sort by priority == sorted with original index as tiebreak.
    expected = [x for _, x in sorted(enumerate(items), key=lambda p: (p[1][0], p[0]))]
    assert got == expected
