"""Event primitives for the simulation kernel.

An :class:`Event` is the unit of coordination: processes yield events and
are resumed when the event *triggers* (succeeds or fails).  Three scheduling
priorities exist so that same-timestamp events process in a well-defined
order; ties beyond priority break on a monotonically increasing sequence
number, which makes the whole engine deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

#: Sentinel meaning "this event has not triggered yet".
PENDING: Any = object()

#: Scheduling priorities (lower value processes first at equal timestamps).
URGENT = 0
NORMAL = 1
LOW = 2


class Event:
    """A condition that may succeed or fail at some point in simulated time.

    Events move through three stages:

    1. *pending* -- created, value unset;
    2. *triggered* -- a value (or exception) has been set and the event sits
       in the simulator's heap waiting to be processed;
    3. *processed* -- callbacks have run; late callbacks are invoked
       immediately.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked with this event when it is processed.  ``None``
        #: once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._exc: Optional[BaseException] = None
        self._ok: bool = True
        #: Set when a process handled (or a condition absorbed) a failure so
        #: the engine does not re-raise it at the top level.
        self._defused: bool = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with *value*.

        The event is scheduled to process at the current simulation time.
        (The lane append is inlined -- this is one of the engine's hottest
        calls and the extra :meth:`Simulator.schedule` frame showed up in
        profiles.  Zero-delay events go to the engine's per-priority FIFO
        lanes instead of the heap: O(1) instead of O(log n), with the
        ``(time, priority, seq)`` total order preserved by the run loop's
        lane/heap merge.)
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._lanes[priority].append((sim._seq, None, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have *exception* thrown into
        it.  If nothing waits on a failed event, the simulator re-raises the
        exception from :meth:`Simulator.step` to avoid silent error loss.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._exc = exception
        self._value = exception
        sim = self.sim
        sim._lanes[priority].append((sim._seq, None, self))
        sim._seq += 1
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the state of another (already triggered) *event*."""
        if event._value is PENDING:
            raise RuntimeError("cannot mirror an untriggered event")
        self._ok = event._ok
        self._exc = event._exc
        self._value = event._value
        self.sim.schedule(self, delay=0.0)

    def defuse(self) -> None:
        """Mark a failure as handled so the engine will not re-raise it."""
        self._defused = True

    # -- composition --------------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        sim.schedule(self, delay=self.delay)


class ConditionValue:
    """Ordered mapping of child events to their values.

    Returned by condition events (:class:`AnyOf` / :class:`AllOf`).  Only
    events that had triggered by the time the condition fired are included.
    """

    __slots__ = ("events",)

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def todict(self) -> dict[Event, Any]:
        """Return a plain ``{event: value}`` dict."""
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConditionValue({self.todict()!r})"


class Condition(Event):
    """Base class for composite events over a fixed set of child events."""

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.sim is not sim:
                raise ValueError("all events of a condition must share one simulator")
        # Immediately evaluate against already-triggered children; subscribe
        # to the rest.
        for event in self._events:
            if event.callbacks is not None:
                # Pending or scheduled: evaluate when it is processed.
                event.callbacks.append(self._check)
            else:
                self._check(event)
        if not self._events and self._value is PENDING:
            # Empty condition is trivially satisfied.
            self.succeed(ConditionValue([]))

    def _evaluate(self, count: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            # Already decided, but still this child's waiter: a failure
            # arriving now (a second failed stripe of an all_of) is
            # absorbed, not left to crash the run.
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            # Propagate child failure; mark it defused because the condition
            # consumed it.
            event._defused = True
            assert event._exc is not None
            self.fail(event._exc)
        elif self._evaluate(self._count, len(self._events)):
            # Only children that have actually been *processed* belong in
            # the result (a Timeout carries its value from construction, so
            # `triggered` alone would over-report).
            done = [e for e in self._events if e.callbacks is None]
            self.succeed(ConditionValue(done))


class AnyOf(Condition):
    """Succeeds as soon as *any* child event succeeds."""

    __slots__ = ()

    def _evaluate(self, count: int, total: int) -> bool:
        return count >= 1


class AllOf(Condition):
    """Succeeds once *all* child events have succeeded."""

    __slots__ = ()

    def _evaluate(self, count: int, total: int) -> bool:
        return count == total
