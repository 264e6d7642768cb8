"""The simulation engine: clock, event heap, zero-delay lanes, run loop.

Scheduling is split across two structures that together realise one
total order ``(time, priority, sequence)``:

* a binary **heap** for events scheduled strictly into the future
  (``delay > 0``), and
* three per-priority FIFO **lanes** (deques) for zero-delay entries --
  ``succeed()``/``fail()``, kick-offs, :meth:`Simulator.call_soon`
  continuations.

Zero-delay traffic dominates the hot path (every grant, completion and
continuation is scheduled "now"), and a deque append/popleft is O(1)
where a heap push/pop is O(log n).  Lane entries are always at the
current timestamp, so they provably drain before the clock advances;
merging lane heads against the heap top by ``(priority, sequence)``
preserves the exact dispatch order of a single-heap engine -- which is
what keeps same-seed runs byte-identical across this refactor.

Every schedule entry carries its own dispatch: a lane entry is
``(seq, fn, arg)`` and a heap entry ``(time, priority, seq, fn, arg)``.
A continuation (:meth:`call_soon` / :meth:`call_later`) is the entry
itself -- the run loop calls ``fn(arg)`` and allocates nothing else --
while ``fn=None`` marks an :class:`Event`, held in ``arg``, whose
callbacks run instead.  Sequence numbers are unique, so tuple order
never compares past ``seq``.
"""

from __future__ import annotations

from collections import deque
import heapq
from typing import Any, Callable, Iterable, List, Optional, TYPE_CHECKING

from repro.sim.events import AllOf, Event, NORMAL, URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` when its ``until``
    event triggers.  The event's value becomes the return value of ``run``.
    """

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class LanePerturbation:
    """Seeded chaos scheduler for same-``(time, priority)`` lanes.

    The engine's dispatch order within one ``(time, priority)``
    equivalence class is an implementation detail (FIFO by sequence
    number); correct models must not depend on it.  When installed via
    :meth:`Simulator.set_lane_perturbation`, the pop path draws from
    this generator to pick *any* member of the current legal window
    instead of the head, exploring alternative-but-legal schedules.
    Two runs with the same seed make identical picks, so a perturbed
    schedule is itself reproducible.

    The generator is an inline xorshift64* so the chaos mode depends on
    neither :mod:`random` nor numpy (keeping the engine DET001-clean
    and free of global-RNG interference).
    """

    __slots__ = ("seed", "picks", "_state")

    _MASK = (1 << 64) - 1
    _MULT = 0x2545F4914F6CDD1D

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        #: Total randomised picks drawn (diagnostic: how much of the
        #: run actually had a window wider than one event).
        self.picks = 0
        state = (self.seed ^ 0x9E3779B97F4A7C15) & self._MASK
        self._state = state or 0x106689D45497FDB5

    def pick(self, n: int) -> int:
        """Return a pseudo-random index in ``[0, n)``."""
        mask = self._MASK
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & mask
        x ^= x >> 27
        self._state = x
        self.picks += 1
        return (((x * self._MULT) & mask) >> 32) % n


def hold_slot(_value: Any = None) -> None:
    """The no-op continuation that holds a schedule slot nobody observes.

    The flat callback chains that replaced the generator processes
    schedule this where a process's completion event went when nothing
    waited on it: dropping it would renumber every later event and move
    ``sim.events``.  Every ``call_soon(hold_slot)`` is an event the
    engine could simply stop scheduling.
    """


class Continuation(Event):
    """What event hooks see for a dispatched continuation entry.

    A continuation is scheduled as a bare ``(fn, arg)`` entry, not an
    event.  :meth:`Simulator.step` builds this view only when hooks are
    installed, so observers see every dispatch as an event: a
    succeeded one named ``Continuation`` whose ``sim`` is set, with
    ``fn`` in ``_fn`` and ``arg`` as its value.  Nothing subscribes to
    it.
    """

    __slots__ = ("_fn",)

    def __init__(self, sim: "Simulator", fn: Callable[[Any], None], arg: Any) -> None:
        self.sim = sim
        self.callbacks = None  # already dispatched; nothing subscribes
        self._value = arg
        self._exc = None
        self._ok = True
        self._defused = False
        self._fn = fn


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns the clock (:attr:`now`, in seconds) and the
    heap + lane schedule described in the module docstring.  The
    sequence number guarantees a total, reproducible order even for
    simultaneous events of equal priority.

    Everything it dispatches is a flat callback: a continuation
    ``fn(arg)`` scheduled with :meth:`call_soon` or :meth:`call_later`,
    or the callbacks of an :class:`Event` once it succeeds or fails.
    Typical use::

        sim = Simulator()
        log = []
        sim.call_later(3.0, log.append, "done")
        sim.run()
        assert (sim.now, log) == (3.0, ["done"])
    """

    #: When set (class-wide), every new Simulator starts with a lane
    #: perturbation installed at this seed.  The race sanitizer uses
    #: this to flip entire cluster builds into chaos mode without
    #: threading a parameter through every constructor; production code
    #: leaves it ``None`` and pays nothing.
    default_lane_perturbation_seed: Optional[int] = None

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time in seconds.  A plain attribute, read
        #: on every hop of the request path; only the run loop (``run``,
        #: ``step`` and their pops) writes it.
        self.now = float(start_time)
        #: Future entries ``(time, priority, seq, fn, arg)``.
        self._heap: list[tuple[float, int, int, Any, Any]] = []
        #: Zero-delay lanes, indexed by priority (URGENT/NORMAL/LOW).
        #: Entries are ``(seq, fn, arg)``; every entry's implicit
        #: timestamp is the current clock.  The deque objects are created
        #: once and only ever mutated in place, so the run loop may cache
        #: them.
        self._lanes: tuple[deque, deque, deque] = (deque(), deque(), deque())
        self._seq = 0
        self._events_processed = 0
        #: Observers called as ``hook(now, event)`` for every processed
        #: event, in installation order (see :meth:`add_event_hook`).
        self._event_hooks: List[Callable[[float, Event], None]] = []
        #: The active span tracer, if observability is attached (set by
        #: :class:`repro.obs.Observability`); instrumented components
        #: check this for ``None`` and pay nothing when it is.
        self.tracer: Optional["Tracer"] = None
        #: Chaos-scheduler state (see :meth:`set_lane_perturbation`).
        self._perturb: Optional[LanePerturbation] = None
        #: The event the active run() terminates on; the perturbed pop
        #: path never permutes past it, so chaos mode cannot change
        #: *which* events a bounded run processes, only their order.
        self._stop_event: Optional[Event] = None
        if self.default_lane_perturbation_seed is not None:
            self._perturb = LanePerturbation(self.default_lane_perturbation_seed)

    # -- clock ---------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Total events processed by :meth:`step` (throughput metric)."""
        return self._events_processed

    # -- scheduling ----------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        """Enqueue *event* to be processed ``delay`` seconds from now."""
        # `not >=` also rejects NaN, which would corrupt the clock.
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        if delay == 0.0:
            self._lanes[priority].append((self._seq, None, event))
        else:
            heapq.heappush(self._heap, (self.now + delay, priority, self._seq, None, event))
        self._seq += 1

    def call_soon(
        self, fn: Callable[[Any], None], value: Any = None, priority: int = NORMAL
    ) -> None:
        """Schedule ``fn(value)`` to run at the current time.

        The schedule entry is the whole continuation: dispatch calls
        ``fn(value)`` and allocates nothing.  ``fn`` must be a plain
        callable of one argument; exceptions it raises surface from
        :meth:`run` exactly like an unhandled failed event.
        """
        self._lanes[priority].append((self._seq, fn, value))
        self._seq += 1

    def call_later(
        self, delay: float, fn: Callable[[Any], None], value: Any = None
    ) -> None:
        """Schedule ``fn(value)`` to run *delay* seconds from now: the
        one way to wait on the clock."""
        if not delay >= 0:
            raise ValueError(f"negative call_later delay: {delay!r}")
        if delay == 0.0:
            self._lanes[NORMAL].append((self._seq, fn, value))
        else:
            heapq.heappush(self._heap, (self.now + delay, NORMAL, self._seq, fn, value))
        self._seq += 1

    @property
    def queue_size(self) -> int:
        """Number of events currently scheduled (diagnostic)."""
        lanes = self._lanes
        return len(self._heap) + len(lanes[0]) + len(lanes[1]) + len(lanes[2])

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event bound to this simulator."""
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds once all of *events* have succeeded, and
        fails with the first of them that fails."""
        return AllOf(self, events)

    # -- run loop ------------------------------------------------------------

    def add_event_hook(self, hook: Callable[[float, Event], None]) -> None:
        """Install an observer called as ``hook(now, event)`` for every
        event the engine processes.

        Hooks fire *before* the event's callbacks run, in installation
        order, so two same-seed runs observe identical sequences -- which
        is exactly what :mod:`repro.devtools.sanitizer` fingerprints.
        Several hooks may coexist (independent hashers, a test's probe).
        When no hook is installed, :meth:`run` keeps its inlined hot loop
        and pays nothing; with hooks the loop dispatches through
        :meth:`step` instead.  Hooks must not mutate simulation state.
        Continuations pass through hooks like any other event, as a
        :class:`Continuation` view built for the hooks alone, so observed
        and unobserved runs dispatch the same stream.
        """
        if hook in self._event_hooks:
            raise ValueError(f"event hook already installed: {hook!r}")
        self._event_hooks.append(hook)

    def remove_event_hook(self, hook: Callable[[float, Event], None]) -> None:
        """Uninstall a previously added event hook.

        Unknown hooks are ignored (removal is idempotent), so teardown
        paths may call this unconditionally.
        """
        try:
            self._event_hooks.remove(hook)
        except ValueError:
            pass

    def set_lane_perturbation(self, seed: Optional[int]) -> Optional[LanePerturbation]:
        """Install (or, with ``None``, remove) the chaos scheduler.

        With a perturbation installed the engine picks a pseudo-random
        member of each same-``(time, priority)`` dispatch window instead
        of the FIFO head -- a legal reordering under the engine's
        documented contract, but one that exposes any model logic that
        accidentally depends on submission order.  The run loop routes
        through :meth:`step` while a perturbation is installed; the
        inlined hot path is unaffected when it is not.

        Returns the installed :class:`LanePerturbation` (or ``None``),
        so callers can inspect ``picks`` afterwards.
        """
        self._perturb = LanePerturbation(seed) if seed is not None else None
        return self._perturb

    @property
    def lane_perturbation(self) -> Optional[LanePerturbation]:
        """The installed chaos scheduler, if any (read-only view)."""
        return self._perturb

    def _pop_next_perturbed(self) -> tuple[Any, Any]:
        """Chaos-mode variant of :meth:`_pop_next`.

        The permutation window is the run of lane entries that share the
        head's ``(time, priority)`` class, truncated at the active run's
        stop event: everything strictly before the stop event may run in
        any order, but nothing may leapfrog it (that would change the
        *set* of dispatched events, not just their order).  A heap entry
        at ``now`` still preempts on strictly higher priority; at equal
        priority it simply drains after the lane, which is itself one of
        the legal orderings of the class.
        """
        lanes = self._lanes
        if lanes[0]:
            priority, lane = 0, lanes[0]
        elif lanes[1]:
            priority, lane = 1, lanes[1]
        elif lanes[2]:
            priority, lane = 2, lanes[2]
        else:
            try:
                self.now, _, _, fn, arg = heapq.heappop(self._heap)
            except IndexError:
                raise EmptySchedule() from None
            return fn, arg
        heap = self._heap
        if heap:
            top = heap[0]
            if top[0] == self.now and top[1] < priority:
                return heapq.heappop(heap)[3:]
        window = len(lane)
        stop = self._stop_event
        if stop is not None and window > 1:
            for index, entry in enumerate(lane):
                if entry[2] is stop:
                    window = index
                    break
        if window <= 1:
            return lane.popleft()[1:]
        assert self._perturb is not None
        pick = self._perturb.pick(window)
        if pick == 0:
            return lane.popleft()[1:]
        # Extract the element at `pick` while preserving the relative
        # order of everything else: O(window) deque rotation, paid only
        # in chaos mode.
        lane.rotate(-pick)
        entry = lane.popleft()
        lane.rotate(pick)
        return entry[1:]

    def _pop_next(self) -> tuple[Any, Any]:
        """Remove the next entry in ``(time, priority, seq)`` order and
        return its ``(fn, arg)``, advancing the clock when it comes off
        the heap.

        Lane entries live at the current timestamp, so any non-empty lane
        beats every heap entry scheduled later than ``now``; a heap entry
        *at* ``now`` competes on ``(priority, seq)``.
        """
        lanes = self._lanes
        if lanes[0]:
            priority, lane = 0, lanes[0]
        elif lanes[1]:
            priority, lane = 1, lanes[1]
        elif lanes[2]:
            priority, lane = 2, lanes[2]
        else:
            try:
                self.now, _, _, fn, arg = heapq.heappop(self._heap)
            except IndexError:
                raise EmptySchedule() from None
            return fn, arg
        heap = self._heap
        if heap:
            top = heap[0]
            if top[0] == self.now and (
                top[1] < priority or (top[1] == priority and top[2] < lane[0][0])
            ):
                return heapq.heappop(heap)[3:]
        return lane.popleft()[1:]

    def step(self) -> None:
        """Process exactly one event.

        Raises :class:`EmptySchedule` when no events remain, and re-raises
        the exception of any *unhandled* failed event so errors in
        callbacks cannot vanish silently.
        """
        if self._perturb is not None:
            fn, arg = self._pop_next_perturbed()
        else:
            fn, arg = self._pop_next()
        self._events_processed += 1
        hooks = self._event_hooks
        if fn is not None:
            if hooks:
                view = Continuation(self, fn, arg)
                for hook in hooks:
                    hook(self.now, view)
            fn(arg)
            return
        event: Event = arg
        for hook in hooks:
            hook(self.now, event)
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive; never rescheduled
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody waited on this failure: surface it.
            exc = event._exc
            assert exc is not None
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the schedule drains, time *until* passes, or event fires.

        * ``until=None`` -- run to exhaustion, return ``None``;
        * ``until=<float>`` -- run until the clock reaches that time;
        * ``until=<Event>`` -- run until that event is processed and return
          its value (raising the event's exception if it failed).
        """
        stop: Optional[Event] = None
        internal_stop = False
        if until is not None:
            if isinstance(until, Event):
                stop = until
            else:
                at = float(until)
                if not at >= self.now:  # also rejects NaN
                    raise ValueError(
                        f"until={at!r} is not a time at or after now={self.now!r}"
                    )
                # An URGENT event at `at` beats all normal events at `at`,
                # giving run(until=t) exclusive-of-t semantics.
                stop = Event(self)
                stop._ok = True
                stop._value = None
                internal_stop = True
                self.schedule(stop, delay=at - self.now, priority=URGENT)
            assert stop.callbacks is not None
            stop.callbacks.append(self._stop_callback)
            # Chaos mode must not permute other events past the stop
            # event (that would change which events the bounded run
            # dispatches at all, not merely their order).
            self._stop_event = stop

        heappop = heapq.heappop
        heap = self._heap
        # The lane deques are stable objects (mutated in place, never
        # reassigned), so caching them in locals is safe.
        lane_u, lane_n, lane_l = self._lanes
        #: Events dispatched by this inlined loop; flushed to
        #: ``_events_processed`` in the finally block so the hot path pays
        #: one local increment instead of two attribute operations.
        dispatched = 0
        try:
            if self._event_hooks or self._perturb is not None:
                # Observed or chaos-scheduled run: dispatch through
                # step() so every hook sees every event and perturbed
                # pops take the slow path.  Only pays when installed.
                while True:
                    self.step()
            # The step() body is inlined here: one Python-level call per
            # event is the single largest fixed cost of the run loop.
            while True:
                # -- pop next in (time, priority, seq) order ---------------
                if lane_u or lane_n or lane_l:
                    if lane_u:
                        priority, lane = 0, lane_u
                    elif lane_n:
                        priority, lane = 1, lane_n
                    else:
                        priority, lane = 2, lane_l
                    if heap:
                        top = heap[0]
                        if top[0] == self.now and (
                            top[1] < priority
                            or (top[1] == priority and top[2] < lane[0][0])
                        ):
                            _, _, _, fn, arg = heappop(heap)
                        else:
                            _, fn, arg = lane.popleft()
                    else:
                        _, fn, arg = lane.popleft()
                else:
                    try:
                        self.now, _, _, fn, arg = heappop(heap)
                    except IndexError:
                        raise EmptySchedule() from None
                dispatched += 1
                # -- dispatch ----------------------------------------------
                if fn is not None:
                    # A continuation: call it -- no callback list, no
                    # event, no generator machinery.
                    fn(arg)
                    continue
                event = arg
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:  # pragma: no cover - defensive
                    continue
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # Nobody waited on this failure: surface it.
                    exc = event._exc
                    assert exc is not None
                    raise exc
        except StopSimulation as end:
            return end.value
        except EmptySchedule:
            # Drained before an `until` event fired: nothing to report.
            return None
        finally:
            self._events_processed += dispatched
            self._stop_event = None
            # Defuse the stop event on every exit path so a later run()
            # cannot trip over it.  Without this, an exception escaping a
            # callback (or an `until` event that never fired) leaves
            # _stop_callback armed: the *next* run() would either end
            # spuriously at the stale deadline or stop the moment the old
            # `until` event finally triggers.
            if stop is not None and stop.callbacks is not None:
                try:
                    stop.callbacks.remove(self._stop_callback)
                except ValueError:  # pragma: no cover - already detached
                    pass
                if internal_stop:
                    # Our own deadline event may still sit in the schedule
                    # (heap for a future deadline, URGENT lane for an
                    # `until=now` one); pull it so an until-free run cannot
                    # pointlessly advance the clock to the abandoned
                    # deadline or trip over the stale entry.
                    stop._defused = True
                    entries = [e for e in self._heap if e[4] is not stop]
                    if len(entries) != len(self._heap):
                        self._heap = entries
                        heapq.heapify(self._heap)
                    for lane in self._lanes:
                        if any(entry[2] is stop for entry in lane):
                            kept = [e for e in lane if e[2] is not stop]
                            lane.clear()
                            lane.extend(kept)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        event._defused = True
        assert event._exc is not None
        raise event._exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now!r} queued={self.queue_size}>"
