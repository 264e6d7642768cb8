"""Grant shortcuts vs the general grant loop: same values, same schedule.

``Resource`` decides a request on the spot when nobody else waits,
instead of running the general grant loop, and ``Mailbox`` has no grant
loop at all: a put hands its item to the one parked consumer, a take
grants a buffered item at once.  That is only sound because the general
loop always runs to quiescence, so each shortcut must grant exactly what
the loop would, in the same schedule slot.  These tests drive random
operation sequences -- requests at mixed priorities, releases and
cancels; single-consumer puts and takes, FIFO and priority-keyed --
with time advancing in between, through the product classes and
through a test-only copy of the general event-based loop they replace,
and require the same dispatches (time, sequence counter at dispatch
and item, in order), the same leftover state and the same
schedule-shape digest.
"""

from bisect import insort_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools.sanitizer import ScheduleShapeHasher
from repro.sim import Mailbox, Resource, Simulator
from repro.sim.events import Event


# -- the general grant loop, as it ran before the shortcuts ---------------------------


class _OracleStore:
    """The event-based store the mailbox replaced: every put and get is
    an event, and each one runs the grant loop to quiescence."""

    def __init__(self, sim, priority_key):
        self.sim = sim
        self.items = []
        self._priority_key = priority_key
        self._insertions = 0
        self._keys = []
        self._putters = []
        self._getters = []


class _OraclePut(Event):
    __slots__ = ("item",)

    def __init__(self, store, item):
        super().__init__(store.sim)
        self.item = item
        store._putters.append(self)
        _oracle_trigger(store)


class _OracleGet(Event):
    __slots__ = ()

    def __init__(self, store):
        super().__init__(store.sim)
        store._getters.append(self)
        _oracle_trigger(store)


def _oracle_trigger(self):
    # Alternate admitting puts and satisfying gets until quiescent.
    keyed = self._priority_key is not None
    progress = True
    while progress:
        progress = False
        while self._putters:
            put = self._putters.pop(0)
            if keyed:
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
            if not self.items:
                continue
            self._getters.remove(get)
            if keyed:
                self._keys.pop(0)
            get.succeed(self.items.pop(0))
            progress = True


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


def _drive_store(kind, ops, oracle):
    """Run *ops* through one single-consumer store; return every put and
    take dispatch as ``(time, sequence counter, op, item)``, the items
    left over and the schedule-shape digest."""
    sim = Simulator()
    shape = ScheduleShapeHasher().attach(sim)
    priority_key = (lambda item: item % 3) if kind == "priority" else None
    dispatched = []

    def record(op):
        return lambda item: dispatched.append((sim.now, sim._seq, op, item))

    if oracle:
        store = _OracleStore(sim, priority_key)
    else:
        box = Mailbox(sim, priority_key=priority_key)
    for op, arg in ops:
        if op == "tick":
            sim.run(until=sim.now + 1.0)
        elif op == "put":
            if oracle:
                put = _OraclePut(store, arg)
                put.callbacks.append(lambda _event, item=arg: record("put")(item))
            else:
                box.put(arg, then=record("put"))
        elif oracle:
            if not store._getters:  # one consumer: skip while it waits
                get = _OracleGet(store)
                get.callbacks.append(lambda event: record("take")(event._value))
        elif box._consumer is None:
            box.take(record("take"))
    sim.run()
    left = store.items if oracle else box.items
    return dispatched, list(left), shape.hexdigest()


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
        st.tuples(st.just("take"), st.just(0)),
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
@given(kind=st.sampled_from(["fifo", "priority"]), ops=STORE_OPS)
def test_store_shortcuts_match_the_general_loop(kind, ops):
    product = _drive_store(kind, ops, oracle=False)
    assert product == _drive_store(kind, ops, oracle=True)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 3), ops=RESOURCE_OPS)
def test_resource_shortcuts_match_the_general_loop(capacity, ops):
    product = _drive_resource(capacity, ops, oracle=False)
    assert product == _drive_resource(capacity, ops, oracle=True)
