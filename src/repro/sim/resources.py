"""The single-consumer mailbox.

A :class:`Mailbox` hands items to one flat-callback consumer with no
event at all.  Items leave FIFO, or lowest priority key first with ties
in arrival order, which keeps service order deterministic and auditable.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.sim.engine import hold_slot
from repro.sim.events import NORMAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


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
