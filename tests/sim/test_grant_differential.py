"""Kernel shortcuts vs the general machinery they replaced: same
values, same schedule.

``Mailbox`` has no grant loop: a put hands its item to the one parked
consumer, a take grants a buffered item at once.  That is only sound
because the general loop always runs to quiescence, so the shortcut
must grant exactly what the loop would, in the same schedule slot.
``AllOf`` is a countdown where the condition events it replaced kept a
generic count-and-evaluate base class and a mapping of child values; it
must decide in the same slot with the same outcome, and absorb the same
child failures.  These tests drive random cases through the product
classes and through test-only copies of what they replace, and require
the same dispatches, the same leftover state and the same schedule-shape
digest.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools.sanitizer import ScheduleShapeHasher
from repro.sim import AllOf, Mailbox, Simulator
from repro.sim.events import Event, PENDING


# -- the general store loop, as it ran before the mailbox -------------------------------


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


STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 9)),
        st.tuples(st.just("take"), st.just(0)),
        st.tuples(st.just("tick"), st.just(0)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["fifo", "priority"]), ops=STORE_OPS)
def test_store_shortcuts_match_the_general_loop(kind, ops):
    product = _drive_store(kind, ops, oracle=False)
    assert product == _drive_store(kind, ops, oracle=True)


# -- the condition events, as they ran before the countdown -----------------------------


class _OracleCondition(Event):
    """The generic composite event ``AllOf`` was a subclass of: it
    counts processed children and asks ``_evaluate`` whether to fire.
    (Its value was a mapping over the processed children; a plain list
    of them stands in here, since no caller read it.)"""

    __slots__ = ("_events", "_count")

    def __init__(self, sim, events):
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.sim is not sim:
                raise ValueError("all events of a condition must share one simulator")
        for event in self._events:
            if event.callbacks is not None:
                event.callbacks.append(self._check)
            else:
                self._check(event)
        if not self._events and self._value is PENDING:
            self.succeed([])

    def _evaluate(self, count, total):
        raise NotImplementedError

    def _check(self, event):
        if self._value is not PENDING:
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._exc)
        elif self._evaluate(self._count, len(self._events)):
            self.succeed([e for e in self._events if e.callbacks is None])


class _OracleAllOf(_OracleCondition):
    __slots__ = ()

    def _evaluate(self, count, total):
        return count == total


class _ChildError(Exception):
    pass


def _drive_all_of(condition_class, children, order, errors):
    """Build one condition over ``children`` -- ``(state, fails, at)``
    each, where ``state`` says whether the child is processed, only
    triggered, or still pending when the condition is built -- trigger
    the pending ones ``at`` seconds later in ``order``, and return the
    dispatch log, every child's ``_defused`` flag and the schedule-shape
    digest.  The log holds the condition's ``(time, ok, exception)`` and,
    to fix its place in the order, a follow-up continuation each child
    schedules from a callback subscribed after the condition's."""
    sim = Simulator()
    shape = ScheduleShapeHasher().attach(sim)
    events = [Event(sim) for _ in children]

    def trigger(index):
        if children[index][1]:
            events[index].fail(errors[index])
        else:
            events[index].succeed(index)

    for index in order:
        if children[index][0] == "processed":
            trigger(index)
    while True:
        # A processed failure nobody waits on surfaces from run(); the
        # condition built next still has to absorb it.
        try:
            sim.run()
            break
        except _ChildError:
            pass
    for index in order:
        if children[index][0] == "triggered":
            trigger(index)
    condition = condition_class(sim, events)
    log = []

    def observe(event):
        event._defused = True  # the waiter handles the failure
        log.append((sim.now, event._ok, None if event._ok else event._exc))

    condition.callbacks.append(observe)
    for index, event in enumerate(events):
        if event.callbacks is not None:
            event.callbacks.append(
                lambda _event, i=index: sim.call_soon(lambda _value: log.append((sim.now, i)))
            )
    for index in order:
        if children[index][0] == "pending":
            sim.call_later(children[index][2], lambda _value, i=index: trigger(i))
    sim.run()
    return log, [event._defused for event in events], shape.hexdigest()


CHILDREN = st.lists(
    st.tuples(
        st.sampled_from(["processed", "triggered", "pending"]),
        st.booleans(),
        st.integers(0, 3),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(children=CHILDREN, data=st.data())
def test_all_of_countdown_matches_the_condition_event(children, data):
    order = data.draw(st.permutations(range(len(children))))
    errors = [_ChildError(index) for index in range(len(children))]
    product = _drive_all_of(AllOf, children, order, errors)
    oracle = _drive_all_of(_OracleAllOf, children, order, errors)
    # Exceptions compare by identity: the same child's error object.
    assert product == oracle
    # The condition dispatched once, failed iff some child failed.
    outcomes = [entry[1] for entry in product[0] if len(entry) == 3]
    assert outcomes == [not any(fails for _, fails, _ in children)]
