"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, Store


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
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_put_get_fifo(self, sim):
        store = Store(sim)
        got = []

        def producer():
            for item in "xyz":
                yield store.put(item)

        def consumer():
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == ["x", "y", "z"]

    def test_put_blocks_at_capacity(self, sim):
        store = Store(sim, capacity=1)
        times = []

        def producer():
            for item in range(3):
                yield store.put(item)
                times.append(sim.now)

        def slow_consumer():
            for _ in range(3):
                yield sim.timeout(2.0)
                yield store.get()

        sim.process(producer())
        sim.process(slow_consumer())
        sim.run()
        assert times == [0.0, 2.0, 4.0]

    def test_get_blocks_until_item(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            got.append((yield store.get()))
            got.append(sim.now)

        def producer():
            yield sim.timeout(3.0)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == ["late", 3.0]

    def test_filtered_get_skips_non_matching(self, sim):
        store = Store(sim)
        got = []

        def producer():
            for item in (1, 2, 3, 4):
                yield store.put(item)

        def consumer():
            got.append((yield store.get(filter=lambda x: x % 2 == 0)))
            got.append((yield store.get()))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [2, 1]  # even item first; then plain FIFO head

    def test_size_property(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("a")
            yield store.put("b")
            assert store.size == 2
            yield store.get()
            assert store.size == 1

        sim.process(proc())
        sim.run()
