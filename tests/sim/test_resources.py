"""Unit tests for Resource and Mailbox."""

import pytest

from repro.sim import Mailbox, Resource, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_serial_service_is_fifo(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(tag, hold):
            with res.request() as req:
                yield req
                order.append((tag, sim.now))
                yield sim.timeout(hold)

        for tag in "abc":
            sim.process(worker(tag, 2.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0), ("c", 4.0)]

    def test_capacity_two_runs_pairs(self, sim):
        res = Resource(sim, capacity=2)
        starts = []

        def worker(tag):
            with res.request() as req:
                yield req
                starts.append((tag, sim.now))
                yield sim.timeout(1.0)

        for tag in range(4):
            sim.process(worker(tag))
        sim.run()
        assert starts == [(0, 0.0), (1, 0.0), (2, 1.0), (3, 1.0)]

    def test_count_and_queue_length(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            with res.request() as req:
                yield req
                yield sim.timeout(5.0)

        def watcher():
            yield sim.timeout(1.0)
            res.request()
            assert res.count == 1
            assert res.queue_length == 1

        sim.process(holder())
        sim.process(watcher())
        sim.run()

    def test_release_without_grant_cancels(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            with res.request() as req:
                yield req
                yield sim.timeout(10.0)

        def quitter():
            yield sim.timeout(1.0)
            req = res.request()
            res.release(req)  # never granted; must just leave the queue
            assert res.queue_length == 0

        sim.process(holder())
        sim.process(quitter())
        sim.run()

    def test_context_manager_releases_on_exception(self, sim):
        res = Resource(sim, capacity=1)

        def crasher():
            with res.request() as req:
                yield req
                raise RuntimeError("oops")

        def after():
            yield sim.timeout(1.0)
            granted = []
            with res.request() as req:
                yield req
                granted.append(sim.now)
            assert granted == [1.0]

        sim.process(crasher())
        sim.process(after())
        with pytest.raises(RuntimeError):
            sim.run()
        # Even though the holder crashed, the slot was freed.
        assert res.count == 0


class TestPriorityResource:
    """A plain :class:`Resource` grants by request priority, FIFO within one."""

    def test_low_priority_number_served_first(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            with res.request() as req:
                yield req
                yield sim.timeout(5.0)

        def worker(tag, prio, delay):
            yield sim.timeout(delay)
            with res.request(priority=prio) as req:
                yield req
                order.append(tag)

        sim.process(holder())
        sim.process(worker("late-important", prio=0, delay=2.0))
        sim.process(worker("early-casual", prio=5, delay=1.0))
        sim.run()
        assert order == ["late-important", "early-casual"]

    def test_equal_priority_is_fifo(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            with res.request() as req:
                yield req
                yield sim.timeout(5.0)

        def worker(tag, delay):
            yield sim.timeout(delay)
            with res.request(priority=1) as req:
                yield req
                order.append(tag)

        sim.process(holder())
        sim.process(worker("first", 1.0))
        sim.process(worker("second", 2.0))
        sim.run()
        assert order == ["first", "second"]


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
