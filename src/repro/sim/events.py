"""Event primitives for the simulation kernel.

An :class:`Event` is the unit of coordination: callbacks subscribe to an
event and run when it is processed, after it *triggers* (succeeds or
fails).  Two scheduling priorities exist so that same-timestamp events
process in a well-defined order; ties beyond priority break on a
monotonically increasing sequence number, which makes the whole engine
deterministic.  An :class:`AllOf` succeeds once a set of events has.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

#: Sentinel meaning "this event has not triggered yet".
PENDING: Any = object()

#: Scheduling priorities (lower value processes first at equal timestamps).
URGENT = 0
NORMAL = 1


class Event:
    """A condition that may succeed or fail at some point in simulated time.

    Events move through three stages:

    1. *pending* -- created, value unset;
    2. *triggered* -- a value (or exception) has been set and the event sits
       in the simulator's heap waiting to be processed;
    3. *processed* -- callbacks have run and :attr:`callbacks` is
       ``None``: a waiter that finds it so consumes the event on the spot.
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
        #: Set when a callback handled (or an AllOf absorbed) a failure so
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

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*.

        The event is scheduled to process at the current simulation time,
        at NORMAL priority.  (The lane append is inlined -- this is one
        of the engine's hottest calls and the extra
        :meth:`Simulator.schedule` frame showed up in profiles.
        Zero-delay events go to the engine's per-priority FIFO lanes
        instead of the heap: O(1) instead of O(log n), with the
        ``(time, priority, seq)`` total order preserved by the run loop's
        lane/heap merge.)
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._lanes[NORMAL].append((sim._seq, None, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, at NORMAL priority.

        A callback waiting on the event handles the failure by setting
        ``_defused``.  If nothing defuses a failed event, the simulator
        re-raises the exception from :meth:`Simulator.step` to avoid
        silent error loss.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._exc = exception
        self._value = exception
        sim = self.sim
        sim._lanes[NORMAL].append((sim._seq, None, self))
        sim._seq += 1
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the engine will not re-raise it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class AllOf(Event):
    """Succeeds, with value ``None``, once every child event has.

    A countdown over the children: each one's dispatch (or, for a child
    already processed, the constructor) counts it off, and the last
    success succeeds this event.  The first failed child fails it with
    that child's exception; the child and any later failure are
    defused, since this event is their waiter.
    """

    __slots__ = ("_pending",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        children = list(events)
        for event in children:
            if event.sim is not sim:
                raise ValueError("all events of a condition must share one simulator")
        self._pending = len(children)
        if not children:
            self.succeed()
        for event in children:
            if event.callbacks is not None:
                event.callbacks.append(self._check)
            else:
                self._check(event)

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if self._value is PENDING:
                assert event._exc is not None
                self.fail(event._exc)
        elif self._value is PENDING:
            self._pending -= 1
            if not self._pending:
                self.succeed()
