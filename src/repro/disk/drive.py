"""The simulated devices: queue, power-state machine, and energy account.

:class:`StorageBackend` is what every device model shares -- the
paper's power-state machine (§III-C: active, idle and standby, a
spin-up paid on the next miss) plus the fault surface.
:class:`SimDisk` is the spinning drive built on it;
:class:`~repro.backend.ssd.SSDBackend` is the flash device.

Requests submitted with :meth:`StorageBackend.submit` are served in
priority order; if the device is in standby a spin-up (costing
:attr:`DiskSpec.spinup_s`, ~2 s for the testbed drives) precedes
service -- this is the entire response-time penalty mechanism the paper
analyses in §VI-C.

Power-management entry points used by the EEVFS storage node:

* :meth:`~StorageBackend.request_sleep` -- begin a spin-down if (and
  only if) the device is idle with nothing in flight; returns whether
  it did.
* :meth:`~StorageBackend.wake` -- begin a spin-up (used by predictive
  wake-up so a disk is active again before its next predicted access).
* ``auto_sleep_after`` -- optional built-in idle timer (the fallback §IV-C
  describes for operation without application hints).
"""

from __future__ import annotations

from dataclasses import dataclass
import enum
import itertools
from typing import Any, Callable, Optional, Tuple, TYPE_CHECKING

from repro.disk.energy import EnergyMeter, PowerEnvelope
from repro.disk.specs import DiskSpec
from repro.disk.states import DiskState
from repro.sim.engine import hold_slot, Simulator
from repro.sim.events import Event, PENDING, URGENT
from repro.sim.monitor import TallyStat
from repro.sim.resources import Mailbox

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.obs.tracer import Span

_request_ids = itertools.count()


class DiskFailureError(RuntimeError):
    """Raised through a request's ``done`` event when its drive fails."""

    def __init__(self, disk_name: str) -> None:
        super().__init__(f"disk {disk_name} has failed")
        self.disk_name = disk_name


class RequestKind(enum.Enum):
    """I/O direction of a disk request."""

    READ = "read"
    WRITE = "write"


#: Request priorities (lower serves first): client-facing demand I/O
#: beats background prefetch copies, which beat destage write-back.
PRIORITY_DEMAND = 0
PRIORITY_PREFETCH = 1
PRIORITY_BACKGROUND = 2


@dataclass(slots=True)
class DiskRequest:
    """One I/O request against a single drive.

    One is built per disk I/O, so the constructor is written out: it
    draws the id from the module's counter and checks the size in one
    frame.
    """

    size_bytes: int
    kind: RequestKind = RequestKind.READ
    #: Sequential requests (log-disk appends) skip positioning overhead.
    sequential: bool = False
    #: Queue priority: lower serves first (see PRIORITY_* constants).
    priority: int = PRIORITY_DEMAND
    #: Opaque caller tag (file id, trace index, ...).
    tag: object = None
    issued_at: float = 0.0
    #: Drawn from a process-wide counter unless given.
    request_id: int = -1
    #: Succeeds (with the request) when service completes.
    done: Optional[Event] = None

    def __init__(
        self,
        size_bytes: int,
        kind: RequestKind = RequestKind.READ,
        sequential: bool = False,
        priority: int = PRIORITY_DEMAND,
        tag: object = None,
        issued_at: float = 0.0,
        request_id: Optional[int] = None,
        done: Optional[Event] = None,
    ) -> None:
        self.size_bytes = size_bytes
        self.kind = kind
        self.sequential = sequential
        self.priority = priority
        self.tag = tag
        self.issued_at = issued_at
        self.request_id = next(_request_ids) if request_id is None else request_id
        self.done = done
        if size_bytes < 0:
            raise ValueError(f"negative request size: {size_bytes!r}")


class StorageBackend:
    """A device attached to the simulation: what every device model shares.

    The node, power manager, fault injector and report assembly program
    against this class.  It owns the host queue and counters, the
    :class:`~repro.disk.states.DiskState` machine with its
    :class:`~repro.disk.energy.EnergyMeter`, spin-up/spin-down
    transitions (an SSD reads them as DEVSLP exit/entry through its
    spec), injected spin-up failures, and ``fail``/``repair``.

    A subclass starts its own server in ``__init__`` and supplies:

    * the server -- flat callbacks that take requests off :attr:`queue`
      and serve them, kicked off URGENT at construction (the slot a
      server process's kick-off event would take);
    * :meth:`request_sleep` -- when the device may sleep;
    * :meth:`_watch` -- one turn of the built-in idle timer's loop,
      kicked off URGENT at construction, after the server;
    * :meth:`_on_fail` -- device-internal state lost on :meth:`fail`.

    Transitions and the idle timer are flat callbacks too, each in the
    slots its generator process used: kick-off URGENT, then
    ``call_later`` where the process slept, then :func:`hold_slot` where
    the finished process's completion event went.

    Parameters
    ----------
    sim:
        The simulator this device lives in.
    spec:
        Device parameters; the power economics are all this class reads.
    name:
        Identifier used in reports (e.g. ``"node3/data1"``).
    auto_sleep_after:
        If set, the idle watchdog sleeps the device after this many
        seconds of complete inactivity (the paper's *disk idle
        threshold*).
    spinup_jitter:
        Relative sd of actual spin-up duration around the nominal value
        -- mechanical variability a predictive wake-up cannot see.
    rng:
        Source of the spin-up jitter (required when it is nonzero).
    """

    #: Device parameters; each subclass narrows the type.
    spec: PowerEnvelope

    def __init__(
        self,
        sim: Simulator,
        spec: PowerEnvelope,
        name: str,
        auto_sleep_after: Optional[float] = None,
        spinup_jitter: float = 0.0,
        rng: Optional["np.random.Generator"] = None,
    ) -> None:
        if auto_sleep_after is not None and auto_sleep_after < 0:
            raise ValueError(f"auto_sleep_after must be >= 0, got {auto_sleep_after!r}")
        if spinup_jitter < 0:
            raise ValueError(f"spinup_jitter must be >= 0, got {spinup_jitter!r}")
        if spinup_jitter > 0 and rng is None:
            raise ValueError("spinup_jitter > 0 requires an rng")
        self.sim = sim
        self.spec = spec
        self.name = name
        self.auto_sleep_after = auto_sleep_after
        self.spinup_jitter = float(spinup_jitter)
        self._rng = rng
        self.meter = EnergyMeter(spec, start_time=sim.now, initial_state=DiskState.IDLE)
        self.queue = Mailbox(sim, priority_key=lambda r: r.priority)
        #: Requests submitted but not yet completed (queued + in service).
        self.inflight = 0
        self.requests_served = 0
        #: Transient degradation: service times are multiplied by this
        #: factor (1.0 = healthy; set via :meth:`set_slowdown`).
        self.slowdown = 1.0
        #: Injected spin-up failures still pending, and the back-off the
        #: device observes after each failed attempt before it may retry.
        self._flaky_spinups = 0
        self._flaky_backoff_s = 0.0
        self.service_times = TallyStat(name=f"{name}:service")
        #: Re-armed event that fires when a spin-up/down completes.
        self._transition_done: Event = Event(sim)
        #: Open spinup/spindown span (observability only; None otherwise).
        self._transition_span: Optional["Span"] = None
        self._idle_started: Event = Event(sim)
        #: An idle timer is running and no activity has retired it yet.
        self._watchdog_timing = False
        #: Identifies the running idle timer; activity bumps it, so the
        #: retired timer fires as a no-op.
        self._watch_token = 0
        #: What the running idle timer does when it expires.
        self._watch_action: Callable[[], bool] = self.request_sleep

    # -- public API --------------------------------------------------------------

    @property
    def state(self) -> DiskState:
        """Current power state."""
        return self.meter.state

    @property
    def is_sleeping(self) -> bool:
        """True when the device cannot serve without a spin-up."""
        return self.state in (DiskState.STANDBY, DiskState.SPIN_DOWN)

    def submit(
        self,
        size_bytes: int,
        kind: RequestKind = RequestKind.READ,
        sequential: bool = False,
        tag: object = None,
        priority: int = PRIORITY_DEMAND,
    ) -> DiskRequest:
        """Enqueue a request; its ``done`` event fires on completion (or
        fails with :class:`DiskFailureError` on a dead device).

        Lower ``priority`` serves first: demand I/O overtakes queued
        prefetch copies and destage write-back."""
        sim = self.sim
        # Positional, in field order (a keyword call builds a dict); the
        # None request id draws the next one.
        request = DiskRequest(
            size_bytes, kind, sequential, priority, tag, sim.now, None, Event(sim)
        )
        meter = self.meter
        if meter.state is DiskState.FAILED:
            request.done.fail(DiskFailureError(self.name))
            return request
        self.inflight += 1
        if self._watchdog_timing:
            # At most one interrupt per timing period: a second submit in
            # the same instant finds the timer already retired.
            self._watchdog_timing = False
            self._interrupt_watchdog()
        self.queue.put(request)
        if meter.state is DiskState.STANDBY:
            self.wake()
        return request

    def request_sleep(self) -> bool:
        """Begin a spin-down if the device is quiescent.  Returns True if
        begun.  What counts as quiescent is the subclass's call."""
        raise NotImplementedError

    def wake(self) -> bool:
        """Spin up from standby.  Returns True if a spin-up began."""
        if self.meter.state is not DiskState.STANDBY:
            return False
        duration = self.spec.spinup_s
        if self.spinup_jitter > 0:
            assert self._rng is not None  # enforced in __init__
            factor = 1.0 + self._rng.normal(0.0, self.spinup_jitter)
            duration *= min(2.0, max(0.5, factor))
        if self._flaky_spinups > 0:
            self._flaky_spinups -= 1
            # The attempt begins in its own URGENT slot, after this call.
            self.sim.call_soon(self._failed_spinup, duration, priority=URGENT)
            return True
        self._begin_transition(DiskState.SPIN_UP, DiskState.IDLE, duration)
        return True

    def _failed_spinup(self, duration: float) -> None:
        """An injected spin-up failure: the motor spends the full spin-up
        (time and energy) but falls back to STANDBY, observes the injected
        back-off, then releases waiters so the next attempt retries."""
        self._set_state(DiskState.SPIN_UP)
        tracer = self.sim.tracer
        if tracer is not None:
            self._transition_span = tracer.begin(
                "spinup", self.name, injected_failure=True
            )
        done = self._transition_done = Event(self.sim)
        self.sim.call_later(duration, self._failed_spinup_spent, done)

    def _failed_spinup_spent(self, done: Event) -> None:
        """The failed attempt's spin-up time is spent."""
        if done._value is not PENDING:
            # fail() cut the attempt short and closed its span; a
            # repair (and a later transition) may have followed.
            self.sim.call_soon(hold_slot)
            return
        self._set_state(DiskState.STANDBY)
        self._end_transition_span(ok=False)
        if self._flaky_backoff_s > 0:
            self.sim.call_later(self._flaky_backoff_s, self._failed_spinup_over, done)
        else:
            self._failed_spinup_over(done)

    def _failed_spinup_over(self, done: Event) -> None:
        """The back-off is over: release the waiters, retry if needed."""
        # Unless the device failed during the back-off.
        if done._value is PENDING:
            done.succeed()
            if self.inflight > 0 and self.state is DiskState.STANDBY:
                self.wake()
        self.sim.call_soon(hold_slot)

    def fail(self) -> None:
        """Inject a permanent hardware failure.

        The device stops drawing power; every queued request fails with
        :class:`DiskFailureError` immediately, as does every later
        submit.  :meth:`_on_fail` then drops whatever the device held
        internally, and a pending transition fails last.  Idempotent.
        """
        if self.state is DiskState.FAILED:
            return
        self._set_state(DiskState.FAILED)
        for request in self.queue.drain():
            self.inflight -= 1
            assert request.done is not None
            request.done.fail(DiskFailureError(self.name))
        self._on_fail()
        # Unblock a server parked on the transition (including a
        # flaky spin-up's back-off window, when the state has already
        # returned to STANDBY); defused so an unwatched transition event
        # cannot crash the simulation.  The transition ends here: its
        # span closes now, and its timer drops out when it fires.
        pending = self._transition_done
        if not pending.triggered:
            pending.fail(DiskFailureError(self.name))
            pending.defuse()
            self._end_transition_span(ok=False)

    def repair(self) -> None:
        """Undo a :meth:`fail`: the device (or its controller) is replaced
        and comes back spun down, with a fresh (empty) queue.

        Data is modelled as intact after a repair -- the fault layer
        treats a failure window as a controller/power outage, not a
        media loss (media loss is what replication recovers from at the
        cluster level).  No-op on a healthy device.
        """
        if self.state is not DiskState.FAILED:
            return
        self._set_state(DiskState.STANDBY)

    def set_idle_threshold(self, seconds: float) -> None:
        """Retarget the built-in idle timer (adaptive power management).

        Takes effect from the *next* idle period: a countdown already
        running keeps its original deadline, so an unchanged threshold
        is behaviourally invisible.  Only valid on devices built with an
        idle timer -- the online controller must not conjure power
        management on disks whose mode never armed one.
        """
        if self.auto_sleep_after is None:
            raise ValueError(f"{self.name}: no idle timer to adjust")
        if seconds < 0:
            raise ValueError(f"idle threshold must be >= 0, got {seconds!r}")
        self.auto_sleep_after = float(seconds)

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore) the device: service times scale by *factor*.

        Models a transiently slow device (vibration, media retries,
        controller resets, thermal throttling); 1.0 restores nominal
        service.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0, got {factor!r}")
        self.slowdown = float(factor)

    def inject_spinup_failures(self, count: int, backoff_s: float = 1.0) -> None:
        """Arm the next *count* spin-up attempts to fail.

        Each failed attempt costs the full spin-up time and energy, drops
        the device back to STANDBY, and waits *backoff_s* before waiters
        may retry -- the retry/back-off loop a real driver performs.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count!r}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s!r}")
        self._flaky_spinups = count
        self._flaky_backoff_s = float(backoff_s)

    def finalize(self) -> None:
        """Close the energy account at the current time."""
        self.meter.finalize(self.sim.now)

    def energy_j(self) -> float:
        """Joules consumed so far (including the current open interval)."""
        return self.meter.energy_j(until=self.sim.now)

    @property
    def transition_count(self) -> int:
        """Counted power-state transitions (spin-downs + spin-ups)."""
        return self.meter.transition_count

    @property
    def utilization(self) -> float:
        """Fraction of elapsed time spent in ACTIVE."""
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        active = self.meter.time_in_state[DiskState.ACTIVE]
        if self.state is DiskState.ACTIVE:
            active += elapsed - self.meter._last_time
        return active / elapsed

    # -- subclass hooks -----------------------------------------------------------

    def _on_fail(self) -> None:
        """Drop device-internal work on :meth:`fail`.  Runs after the host
        queue is drained and before the pending transition fails."""

    def _watch(self, _value: Any = None) -> None:
        """One turn of the built-in idle timer's loop (the policy fallback
        without application hints): arm a timer with
        :meth:`_arm_watch_timer`, or park until something changes."""
        raise NotImplementedError

    # -- internals ----------------------------------------------------------------

    def _set_state(self, new_state: DiskState) -> None:
        meter = self.meter
        if new_state is not meter.state:
            meter.transition(self.sim.now, new_state)

    def _begin_transition(
        self, via: DiskState, target: DiskState, duration: float
    ) -> None:
        self._set_state(via)
        tracer = self.sim.tracer
        if tracer is not None:
            if via is DiskState.SPIN_UP:
                span_kind = "spinup"
            elif via is DiskState.SPIN_DOWN:
                span_kind = "spindown"
            else:
                span_kind = "disk.shift"
            self._transition_span = tracer.begin(
                span_kind, self.name, target=target.value
            )
        self._transition_done = Event(self.sim)
        self.sim.call_soon(self._time_transition, (target, duration), priority=URGENT)

    def _end_transition_span(self, **tags: object) -> None:
        """Close the open transition span, if tracing is attached."""
        span = self._transition_span
        if span is not None:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end(span, **tags)
            self._transition_span = None

    def _time_transition(self, plan: Tuple[DiskState, float]) -> None:
        """Transition kick-off: time the transition that is current now."""
        target, duration = plan
        self.sim.call_later(
            duration, self._finish_transition, (self._transition_done, target)
        )

    def _finish_transition(self, ending: Tuple[Event, DiskState]) -> None:
        done, target = ending
        if done._value is PENDING:
            # (Otherwise fail() cut the transition short and closed its
            # span; a repair, and a later transition, may have followed.)
            self._set_state(target)
            self._end_transition_span()
            done.succeed()
            # A request may have landed while we were spinning down; chain
            # the wake-up immediately so it is not stranded until the next
            # submit.
            if target is DiskState.STANDBY and self.inflight > 0:
                self.wake()
        self.sim.call_soon(hold_slot)

    def _signal_idle(self) -> None:
        event, self._idle_started = self._idle_started, Event(self.sim)
        event.succeed()

    # -- the idle watchdog ------------------------------------------------------------

    def _arm_watch_timer(self, delay: float, action: Callable[[], bool]) -> None:
        """Run *action* after *delay* seconds unless activity comes first."""
        self._watchdog_timing = True
        self._watch_action = action
        self.sim.call_later(delay, self._watch_expired, self._watch_token)

    def _watch_expired(self, token: int) -> None:
        if token != self._watch_token:
            return  # retired by activity; the timer still held its slot
        self._watch_action()
        self._watchdog_timing = False
        self._watch()

    def _interrupt_watchdog(self) -> None:
        """Activity arrived while an idle timer ran: retire the timer in
        an URGENT slot.  The slot's event is failed (and defused), as
        the process interrupt it stands in for was."""
        retire = Event(self.sim)
        retire._ok = False
        retire._defused = True
        retire._value = None
        assert retire.callbacks is not None
        retire.callbacks.append(self._watch_interrupted)
        self.sim.schedule(retire, priority=URGENT)

    def _watch_interrupted(self, _event: Event) -> None:
        self._watch_token += 1
        self._watch()


class SimDisk(StorageBackend):
    """A spinning drive attached to the simulation.

    Adds to :class:`StorageBackend` a FIFO (priority) server timed by
    :meth:`DiskSpec.service_time` (positioning + transfer), in which a
    request already in service completes even if the drive fails (the
    head was mid-transfer; simulation granularity), and the DRPM-style
    shift of multi-speed drives down to their low-RPM point.

    Parameters
    ----------
    idle_action:
        What the idle watchdog does on expiry: full ``"standby"`` (the
        paper) or a DRPM-style shift to ``"low_speed"``.

    The other parameters are :class:`StorageBackend`'s.
    """

    spec: DiskSpec

    def __init__(
        self,
        sim: Simulator,
        spec: DiskSpec,
        name: str = "disk",
        auto_sleep_after: Optional[float] = None,
        idle_action: str = "standby",
        spinup_jitter: float = 0.0,
        rng: Optional["np.random.Generator"] = None,
    ) -> None:
        if idle_action not in ("standby", "low_speed"):
            raise ValueError(f"unknown idle_action: {idle_action!r}")
        if idle_action == "low_speed" and spec.low_speed is None:
            raise ValueError(f"{name}: idle_action='low_speed' needs a multi-speed spec")
        super().__init__(
            sim,
            spec,
            name,
            auto_sleep_after=auto_sleep_after,
            spinup_jitter=spinup_jitter,
            rng=rng,
        )
        #: The drive at its low-RPM point, which times low-speed service
        #: (multi-speed drives only).
        self.low_spec = (
            spec.with_overrides(bandwidth_bps=spec.low_speed.bandwidth_bps, low_speed=None)
            if spec.low_speed is not None
            else None
        )
        self.idle_action = idle_action
        #: The request in service or waiting out a transition, with the
        #: speed, duration and span of its service.
        self._request: Optional[DiskRequest] = None
        self._low = False
        self._service_s = 0.0
        self._span: Optional["Span"] = None
        # Server and idle watchdog are kicked off URGENT now: the slot
        # each one's process would start in.
        sim.call_soon(self._await_request, priority=URGENT)
        if auto_sleep_after is not None:
            sim.call_soon(self._watch, priority=URGENT)

    def request_sleep(self) -> bool:
        """Spin down if idle at full speed with nothing in flight.
        Returns True if begun."""
        if self.meter.state is not DiskState.IDLE or self.inflight > 0:
            return False
        self._begin_transition(DiskState.SPIN_DOWN, DiskState.STANDBY, self.spec.spindown_s)
        return True

    def shift_down(self) -> bool:
        """Drop to the low-RPM operating point (multi-speed drives).

        Allowed only from IDLE with nothing in flight.  Returns True if
        the shift began; raises if the drive is not multi-speed.  The
        drive then serves at low speed; nothing shifts it back up.
        """
        if self.spec.low_speed is None:
            raise RuntimeError(f"{self.name} ({self.spec.name}) is not multi-speed")
        if self.state is not DiskState.IDLE or self.inflight > 0:
            return False
        profile = self.spec.low_speed
        self._begin_transition(DiskState.SHIFT_DOWN, DiskState.LOW_IDLE, profile.shift_s)
        return True

    @property
    def shift_count(self) -> int:
        """Speed shifts performed (multi-speed drives)."""
        return self.meter.shift_count

    # -- internals ----------------------------------------------------------------

    def _await_request(self, _value: Any = None) -> None:
        """Server kick-off: park :meth:`_serve` on the host queue."""
        self.queue.take(self._serve)

    def _serve(self, arg: Any) -> None:
        """Start serving the request *arg* taken from the queue, or the
        held request once the transition event *arg* it waited on has
        ended."""
        request = self._request
        if request is None:
            request = self._request = arg
        elif not arg._ok:
            arg._defused = True
            assert arg._exc is not None
            self._fail_held(arg._exc)
            return
        # Wait out any transition in progress, then leave standby.
        meter = self.meter
        while not meter.state.can_serve:
            if meter.state is DiskState.FAILED:
                self._fail_held(DiskFailureError(self.name))
                return
            if meter.state is DiskState.STANDBY:
                self.wake()
            pending = self._transition_done
            if pending.callbacks is not None:
                pending.callbacks.append(self._serve)
                return
            if not pending._ok:
                pending._defused = True
                assert pending._exc is not None
                self._fail_held(pending._exc)
                return
        low = self._low = meter.state.is_low_speed
        self._set_state(DiskState.LOW_ACTIVE if low else DiskState.ACTIVE)
        spec = self.low_spec if low else self.spec
        assert spec is not None  # low implies a multi-speed spec
        duration = self._service_s = self.slowdown * spec.service_time(
            request.size_bytes, sequential=request.sequential
        )
        tracer = self.sim.tracer
        if tracer is not None:
            self._span = tracer.begin(
                "disk.service",
                self.name,
                io=request.kind.value,
                bytes=request.size_bytes,
            )
        self.sim.call_later(duration, self._served, request)

    def _served(self, request: DiskRequest) -> None:
        """Service of *request* ended: settle it and take the next one."""
        span = self._span
        if span is not None:
            self._span = None
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end(span)
        self.inflight -= 1
        self.requests_served += 1
        self.service_times.record(self._service_s)
        if self.meter.state is not DiskState.FAILED and not self.queue.items:
            self._set_state(DiskState.LOW_IDLE if self._low else DiskState.IDLE)
            if self.inflight == 0:
                self._signal_idle()
        self._request = None
        assert request.done is not None
        request.done.succeed(request)
        self.queue.take(self._serve)

    def _fail_held(self, failure: BaseException) -> None:
        """The drive died while the held request waited: fail it and go
        back to the queue (a repair may revive the drive)."""
        request = self._request
        assert request is not None and request.done is not None
        self._request = None
        self.inflight -= 1
        request.done.fail(failure)
        self._await_request()

    def _watch(self, _value: Any = None) -> None:
        """One turn of the idle timer's loop: time a full-speed idle
        period, or park until the drive drains.  Activity retires a
        running timer and runs the turn again."""
        if self.meter.state is DiskState.IDLE and self.inflight == 0:
            # Re-read each idle period: set_idle_threshold may retune the
            # timer mid-run (the online controller's knob).
            auto_sleep_after = self.auto_sleep_after
            assert auto_sleep_after is not None  # watchdog only started when set
            self._arm_watch_timer(
                auto_sleep_after,
                self.shift_down if self.idle_action == "low_speed" else self.request_sleep,
            )
        else:
            idle = self._idle_started
            assert idle.callbacks is not None
            idle.callbacks.append(self._watch)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SimDisk {self.name} {self.state.value} inflight={self.inflight} "
            f"served={self.requests_served}>"
        )
