"""Shared resources: slot servers and single-consumer mailboxes.

A :class:`Resource` follows the classic discrete-event pattern: a
request is an event that succeeds when the resource grants it.  A
:class:`Mailbox` hands items to one flat-callback consumer with no event
at all.  Every queue is FIFO within a priority (:class:`Resource`
requests and keyed :class:`Mailbox` items order low priority first, ties
by arrival), which keeps service order deterministic and auditable.
"""

from __future__ import annotations

from bisect import bisect_right, insort_right
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.sim.engine import hold_slot
from repro.sim.events import Event, NORMAL, PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ... critical section ...
    """

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Inline Event.__init__ -- every grant allocates a Request.
        sim = self.sim = resource.sim
        self.callbacks = []
        self._exc = None
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        resource._tickets += 1
        self._key = (priority, resource._tickets)
        queue = resource._queue
        if not queue and len(resource._users) < resource.capacity:
            # Nobody waits and a slot is free: grant on the spot, in the
            # schedule slot the grant loop would give this request.
            resource._users.append(self)
            self._value = self
            sim._lanes[NORMAL].append((sim._seq, None, self))
            sim._seq += 1
            return
        self._value = PENDING
        # Tickets increase monotonically, so an equal-or-lower-priority
        # arrival belongs at the tail -- the overwhelmingly common case
        # (every plain FIFO request).  Only a genuinely higher-priority
        # arrival pays the O(log n) insertion; never a full re-sort.
        if not queue or queue[-1]._key <= self._key:
            queue.append(self)
        else:
            insort_right(queue, self, key=lambda r: r._key)
        resource._trigger_grants()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Resource:
    """A server with ``capacity`` identical slots and a wait queue ordered
    by request ``priority`` (low first), FIFO within a priority."""

    __slots__ = ("sim", "capacity", "_users", "_queue", "_tickets")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._users: list[Request] = []
        self._queue: list[Request] = []
        self._tickets = 0

    # -- public API -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event succeeds when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a slot (or withdraw an ungranted request)."""
        users = self._users
        if request in users:
            users.remove(request)
            if self._queue:
                self._trigger_grants()
        else:
            request.cancel()

    # -- internals --------------------------------------------------------------

    def _trigger_grants(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.pop(0)
            self._users.append(request)
            request.succeed(request)


class Mailbox:
    """A single-consumer queue: buffered items plus at most one parked
    consumer.

    Items are taken FIFO or, given ``priority_key``, lowest key first
    with ties in arrival order.  Every put and take lands in the
    schedule slot the event-based store it replaced gave its put and get
    events, so a queue rebuilt on it keeps every event where it was:

    * ``put(item, then)`` schedules ``then(item)`` in the put's slot,
      then, if a consumer is parked, ``consumer(item)`` in the slot the
      parked get succeeded in;
    * ``take(fn)`` schedules ``fn(item)`` on the spot when an item is
      buffered, or parks ``fn`` for the next put.

    Nobody else waits on a mailbox, so nothing needs a grant loop.
    """

    __slots__ = ("sim", "items", "_key", "_keys", "_admitted", "_consumer")

    def __init__(
        self, sim: "Simulator", priority_key: Optional[Callable[[Any], Any]] = None
    ) -> None:
        self.sim = sim
        #: Buffered items, the next one to take first.
        self.items: list[Any] = []
        self._key = priority_key
        #: ``(priority_key(item), admission#)`` of each buffered item,
        #: when keyed; the admission number breaks every tie.
        self._keys: list[tuple[Any, int]] = []
        self._admitted = 0
        self._consumer: Optional[Callable[[Any], None]] = None

    def put(self, item: Any, then: Callable[[Any], None] = hold_slot) -> None:
        """Deliver *item* to the parked consumer, or buffer it; ``then(item)``
        runs in the put's own slot (``hold_slot`` when nobody follows up)."""
        sim = self.sim
        lane = sim._lanes[NORMAL]
        seq = sim._seq
        lane.append((seq, then, item))
        consumer = self._consumer
        if consumer is not None:
            # A consumer parks only on an empty mailbox: hand the item over.
            self._consumer = None
            lane.append((seq + 1, consumer, item))
            sim._seq = seq + 2
            return
        sim._seq = seq + 1
        key_of = self._key
        if key_of is None:
            self.items.append(item)
            return
        key = (key_of(item), self._admitted)
        self._admitted += 1
        # Keys are unique, so the bisection point is after every smaller key.
        index = bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self.items.insert(index, item)

    def take(self, fn: Callable[[Any], None]) -> None:
        """Schedule ``fn(item)`` for the next item: now if one is buffered,
        else on the next put.  Only one consumer may be parked."""
        if self._consumer is not None:
            raise RuntimeError("a consumer is already parked on this mailbox")
        items = self.items
        if not items:
            self._consumer = fn
            return
        if self._key is not None:
            del self._keys[0]
        sim = self.sim
        sim._lanes[NORMAL].append((sim._seq, fn, items.pop(0)))
        sim._seq += 1

    def drain(self) -> list[Any]:
        """Remove and return every buffered item; a parked consumer stays."""
        items, self.items = self.items, []
        self._keys.clear()
        return items
