"""Processes: generator coroutines driven by the event engine.

A process wraps a Python generator.  Each ``yield`` hands the engine an
:class:`~repro.sim.events.Event`; the generator resumes (with the event's
value sent in, or its exception thrown in) when that event is processed.
A process is itself an event that triggers when the generator returns or
raises, so processes can wait on each other directly.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.sim.events import Event, PENDING, URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Process(Event):
    """Execution wrapper for a generator; also its completion event."""

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        # Event.__init__, inlined.
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._exc = None
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", type(generator).__name__)

        # Kick-off event: resume the generator for the first time "now".
        start = Event(sim)
        start._ok = True
        start._value = None
        assert start.callbacks is not None
        start.callbacks.append(self._resume)
        sim._lanes[URGENT].append((sim._seq, None, start))
        sim._seq += 1

    # -- state ----------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    # -- engine plumbing --------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator until it yields a pending event or ends."""
        sim = self.sim
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    # The process is now responsible for the failure.
                    event._defused = True
                    assert event._exc is not None
                    target = self._generator.throw(event._exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                sim._lanes[1].append((sim._seq, None, self))
                sim._seq += 1
                break
            except BaseException as exc:
                self._ok = False
                self._exc = exc
                self._value = exc
                sim._lanes[1].append((sim._seq, None, self))
                sim._seq += 1
                break

            bad: Optional[BaseException] = None
            if not isinstance(target, Event):
                bad = TypeError(f"process yielded a non-event: {target!r}")
            elif target.sim is not sim:
                bad = ValueError("yielded an event from a different simulator")
            if bad is not None:
                # Deliver via a synthetic failed event so the try/except at
                # the top of the loop handles generator completion too.
                synthetic = Event(sim)
                synthetic._ok = False
                synthetic._exc = bad
                synthetic._value = bad
                synthetic.callbacks = None
                event = synthetic
                continue

            if target.callbacks is not None:
                # Not yet processed (pending, or triggered and sitting in
                # the heap): wait for it.
                target.callbacks.append(self._resume)
                break
            # Already processed: consume immediately without a heap trip.
            event = target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if not self.is_alive else "alive"
        return f"<Process {self.name} {state}>"
