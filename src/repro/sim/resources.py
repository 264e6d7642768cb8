"""Shared resources: slot servers and object stores.

These follow the classic discrete-event pattern: a request is an event that
succeeds when the resource grants it.  Every queue is FIFO within a priority
(:class:`Resource` requests and :class:`PriorityStore` items order low
priority first, ties by arrival), which keeps service order deterministic
and auditable.
"""

from __future__ import annotations

from bisect import bisect_right, insort_right
from typing import Any, Callable, Optional, TYPE_CHECKING

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
            sim._lanes[NORMAL].append((sim._seq, self))
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


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        sim = self.sim = store.sim
        self.callbacks = []
        self._exc = None
        self._ok = True
        self._defused = False
        self.item = item
        if store._putters or len(store.items) >= store.capacity:
            self._value = PENDING
            store._putters.append(self)
            store._trigger()
            return
        # No other putter waits and the item fits: admit it and succeed
        # in the slot the grant loop would use, then offer it to the
        # waiting getters.
        store._admit(item)
        self._value = None
        sim._lanes[NORMAL].append((sim._seq, self))
        sim._seq += 1
        if store._getters:
            store._hand_over()


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]]) -> None:
        sim = self.sim = store.sim
        self.callbacks = []
        self._exc = None
        self._ok = True
        self._defused = False
        self.filter = filter
        if store._getters or store._putters:
            self._value = PENDING
            store._getters.append(self)
            store._trigger()
            return
        # Nobody else waits: take a matching item now, or start waiting.
        if filter is None:
            index = 0 if store.items else None
        else:
            index = store._match(self)
        if index is None:
            self._value = PENDING
            store._getters.append(self)
            return
        self._value = store._pop(index)
        sim._lanes[NORMAL].append((sim._seq, self))
        sim._seq += 1


class Store:
    """A FIFO buffer of Python objects with optional capacity and filtering.

    ``put(item)`` blocks while the store is full; ``get()`` blocks while it
    is empty.  ``get(filter=...)`` retrieves the first item matching the
    predicate (a filter-store in classic terminology).

    Every put and get runs the grant to quiescence, so a waiting getter
    never matches a buffered item.  When nobody else waits, a put or get
    is therefore decided on the spot, without the general grant loop;
    filters must be pure functions of the item for this to hold.
    """

    __slots__ = ("sim", "capacity", "items", "_putters", "_getters")

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []

    @property
    def size(self) -> int:
        """Number of items currently buffered."""
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert *item*; event succeeds once capacity allows."""
        return StorePut(self, item)

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Remove and return an item; event succeeds once one is available."""
        return StoreGet(self, filter)

    def _trigger(self) -> None:
        # Alternate admitting puts and satisfying gets until quiescent.
        progress = True
        while progress:
            progress = False
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self._admit(put.item)
                put.succeed()
                progress = True
            for get in list(self._getters):
                index = self._match(get)
                if index is None:
                    continue
                self._getters.remove(get)
                get.succeed(self._pop(index))
                progress = True

    def _hand_over(self) -> None:
        """Give the item a lone put just admitted to the first waiting
        getter that takes it.  No waiting getter matched an older item,
        so one pass over the getters is the whole grant."""
        getters = self._getters
        for position, get in enumerate(getters):
            index = 0 if get.filter is None else self._match(get)
            if index is not None:
                del getters[position]
                get.succeed(self._pop(index))
                return

    def _admit(self, item: Any) -> None:
        self.items.append(item)

    def _pop(self, index: int) -> Any:
        return self.items.pop(index)

    def _match(self, get: StoreGet) -> Optional[int]:
        if get.filter is None:
            return 0 if self.items else None
        for i, item in enumerate(self.items):
            if get.filter(item):
                return i
        return None

    def drain(self) -> list[Any]:
        """Remove and return every buffered item (pending puts unaffected)."""
        items, self.items = self.items, []
        return items


class PriorityStore(Store):
    """A :class:`Store` whose getters receive the lowest-priority-number
    item first (ties FIFO).

    Items are ranked by ``priority_key(item)``; insertion order breaks
    ties, so behaviour stays deterministic.  Filtered gets still scan in
    priority order.
    """

    __slots__ = ("_priority_key", "_insertions", "_keys")

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = float("inf"),
        priority_key: Optional[Callable[[Any], float]] = None,
    ) -> None:
        super().__init__(sim, capacity=capacity)
        self._priority_key: Callable[[Any], float] = (
            priority_key if priority_key is not None else (lambda x: x)
        )
        self._insertions = 0
        #: Parallel list of (priority, insertion#) sort keys for `items`.
        self._keys: list[tuple[float, int]] = []

    def _admit(self, item: Any) -> None:
        key = (self._priority_key(item), self._insertions)
        self._insertions += 1
        # Keys are unique (the insertion number breaks every tie), so the
        # bisection point is the position after all smaller keys.
        index = bisect_right(self._keys, key)
        self.items.insert(index, item)
        self._keys.insert(index, key)

    def _pop(self, index: int) -> Any:
        self._keys.pop(index)
        return self.items.pop(index)

    def drain(self) -> list[Any]:
        self._keys.clear()
        return super().drain()
