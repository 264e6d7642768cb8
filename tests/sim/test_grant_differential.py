"""Grant shortcuts vs the general grant loop: same values, same schedule.

``Resource``, ``Store`` and ``PriorityStore`` decide a request, put or
get on the spot when nobody else waits, instead of running the general
grant loop.  That is only sound because the loop always runs to
quiescence, so the shortcut must grant exactly what the loop would, in
the same schedule slot.  This test drives random operation sequences --
filtered and unfiltered puts and gets, requests at mixed priorities,
releases and cancels, with time advancing in between -- through the
product classes and through a test-only copy of the general loop they
short-circuit, and requires the same delivered values at the same times,
the same leftover state and the same schedule-shape digest.
"""

from bisect import insort_right
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools.sanitizer import ScheduleShapeHasher
from repro.sim import Resource, Simulator, Store
from repro.sim.events import Event
from repro.sim.resources import PriorityStore

#: Pure filters, as the shortcut requires.
FILTERS = {
    None: None,
    "even": lambda item: item % 2 == 0,
    "odd": lambda item: item % 2 == 1,
    "big": lambda item: item >= 5,
}


# -- the general grant loop, as it ran before the shortcuts ---------------------------


class _OraclePut(Event):
    __slots__ = ("item",)

    def __init__(self, store, item):
        super().__init__(store.sim)
        self.item = item
        store._putters.append(self)
        _oracle_trigger(store)


class _OracleGet(Event):
    __slots__ = ("filter",)

    def __init__(self, store, filter):
        super().__init__(store.sim)
        self.filter = filter
        store._getters.append(self)
        _oracle_trigger(store)


def _oracle_trigger(self):
    # Alternate admitting puts and satisfying gets until quiescent.
    priority = isinstance(self, PriorityStore)
    progress = True
    while progress:
        progress = False
        while self._putters and len(self.items) < self.capacity:
            put = self._putters.pop(0)
            if priority:
                key = (self._priority_key(put.item), self._insertions)
                self._insertions += 1
                index = 0
                while index < len(self._keys) and self._keys[index] <= key:
                    index += 1
                self.items.insert(index, put.item)
                self._keys.insert(index, key)
            else:
                self.items.append(put.item)
            put.succeed()
            progress = True
        for get in list(self._getters):
            index = _oracle_match(self, get)
            if index is None:
                continue
            self._getters.remove(get)
            if priority:
                self._keys.pop(index)
            get.succeed(self.items.pop(index))
            progress = True


def _oracle_match(self, get):
    if get.filter is None:
        return 0 if self.items else None
    for i, item in enumerate(self.items):
        if get.filter(item):
            return i
    return None


class _OracleRequest(Event):
    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource, priority=0):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority
        resource._tickets += 1
        self._key = (priority, resource._tickets)
        queue = resource._queue
        if not queue or queue[-1]._key <= self._key:
            queue.append(self)
        else:
            insort_right(queue, self, key=lambda r: r._key)
        _oracle_trigger_grants(resource)

    def cancel(self):
        if self in self.resource._queue:
            self.resource._queue.remove(self)


def _oracle_trigger_grants(self):
    while self._queue and len(self._users) < self.capacity:
        request = self._queue.pop(0)
        self._users.append(request)
        request.succeed(request)


def _oracle_release(self, request):
    if request in self._users:
        self._users.remove(request)
        _oracle_trigger_grants(self)
    else:
        request.cancel()


# -- one operation sequence on one path -------------------------------------------------


def _drive_store(kind, capacity, ops, oracle):
    sim = Simulator()
    shape = ScheduleShapeHasher().attach(sim)
    if kind == "priority":
        store = PriorityStore(sim, capacity, priority_key=lambda item: item % 3)
    else:
        store = Store(sim, capacity)
    delivered = []
    for index, (op, arg) in enumerate(ops):
        if op == "tick":
            sim.run(until=sim.now + 1.0)
            continue
        if op == "put":
            event = _OraclePut(store, arg) if oracle else store.put(arg)
        else:
            event = _OracleGet(store, FILTERS[arg]) if oracle else store.get(FILTERS[arg])
        event.callbacks.append(
            lambda done, index=index: delivered.append((sim.now, index, done._value))
        )
    sim.run()
    return delivered, list(store.items), shape.hexdigest()


def _drive_resource(capacity, ops, oracle):
    sim = Simulator()
    shape = ScheduleShapeHasher().attach(sim)
    resource = Resource(sim, capacity)
    requests = []
    granted = []
    for index, (op, arg) in enumerate(ops):
        if op == "tick":
            sim.run(until=sim.now + 1.0)
        elif op == "request":
            request = _OracleRequest(resource, arg) if oracle else resource.request(arg)
            request.callbacks.append(
                lambda _event, index=index: granted.append((sim.now, index))
            )
            requests.append(request)
        elif requests:
            request = requests[arg % len(requests)]
            if op == "cancel":
                request.cancel()
            elif oracle:
                _oracle_release(resource, request)
            else:
                resource.release(request)
    sim.run()
    held = [requests.index(r) for r in resource._users]
    waiting = [requests.index(r) for r in resource._queue]
    return granted, held, waiting, shape.hexdigest()


STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 9)),
        st.tuples(st.just("get"), st.sampled_from([None, "even", "odd", "big"])),
        st.tuples(st.just("tick"), st.just(0)),
    ),
    max_size=40,
)

RESOURCE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.integers(0, 2)),
        st.tuples(st.sampled_from(["release", "cancel"]), st.integers(0, 63)),
        st.tuples(st.just("tick"), st.just(0)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["fifo", "priority"]),
    capacity=st.sampled_from([1, 2, 3, math.inf]),
    ops=STORE_OPS,
)
def test_store_shortcuts_match_the_general_loop(kind, capacity, ops):
    product = _drive_store(kind, capacity, ops, oracle=False)
    assert product == _drive_store(kind, capacity, ops, oracle=True)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 3), ops=RESOURCE_OPS)
def test_resource_shortcuts_match_the_general_loop(capacity, ops):
    product = _drive_resource(capacity, ops, oracle=False)
    assert product == _drive_resource(capacity, ops, oracle=True)
