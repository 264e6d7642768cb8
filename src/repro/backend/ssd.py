"""The SSD backend: an FTL-level flash device.

Where :class:`~repro.disk.drive.SimDisk` models a spindle (positioning
+ transfer + spin-up penalties), this models a small flash device the
way the buffer tier would actually see one:

* **N channels** serve NAND operations in parallel; each channel is its
  own FIFO (priority) queue with per-page read/program timing and
  per-block erase timing.
* A small **write cache** accepts host writes at interface speed and
  destages them to flash in the background (FIFO, with backpressure
  once the cache is full).  Overwriting a still-dirty extent is
  absorbed -- one program, several host writes.
* A **page-mapped FTL** (:mod:`repro.backend.ftl`) places destaged
  extents, and **greedy GC** reclaims space when a channel runs low --
  relocation and erase traffic contends with host I/O on the same
  channel queues, which is exactly the write-amplification mechanism.
* **Power states** are :class:`~repro.disk.drive.StorageBackend`'s
  :class:`~repro.disk.states.DiskState` machine: STANDBY is DEVSLP,
  SPIN_UP/SPIN_DOWN are its (fast) exit and entry.  The
  :class:`~repro.disk.energy.EnergyMeter` integrates the rail power;
  per-operation NAND energies accrue separately and are added in
  :meth:`SSDBackend.energy_j`.

Observability: ``ssd.destage`` spans wrap each background extent
write-back, ``ssd.gc`` spans each garbage-collection round, and
``ssd.channel`` spans each channel job.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.backend.ftl import ExtentMap, PageMappedFTL
from repro.disk.drive import (
    DiskFailureError,
    DiskRequest,
    PRIORITY_BACKGROUND,
    RequestKind,
    StorageBackend,
)
from repro.disk.specs import LowSpeedProfile
from repro.disk.states import DiskState
from repro.sim.engine import Simulator
from repro.sim.events import AllOf, Event, URGENT
from repro.sim.resources import Mailbox

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.config import EEVFSConfig
    from repro.obs.tracer import Span


@dataclass(frozen=True)
class SSDSpec:
    """Physical parameters of a simulated SSD.

    The ``spinup_*``/``spindown_*`` properties map DEVSLP exit/entry
    onto the :class:`~repro.disk.energy.PowerEnvelope` surface, so
    break-even analysis and the predictive power manager treat an SSD
    exactly like a (very cheap to sleep) drive.
    """

    name: str
    capacity_bytes: int
    n_channels: int = 4
    page_bytes: int = 64 * 1024
    pages_per_block: int = 64
    overprovision: float = 0.07
    gc_free_fraction: float = 0.10
    #: Per-page NAND timings (page = one superpage across planes).
    page_read_s: float = 0.0002
    page_program_s: float = 0.001
    block_erase_s: float = 0.003
    #: Per-operation NAND energies (on top of the rail power).
    page_read_energy_j: float = 50e-6
    page_program_energy_j: float = 400e-6
    block_erase_energy_j: float = 1.5e-3
    #: Host-interface write cache (DRAM): size and accept bandwidth.
    write_cache_bytes: int = 32 * 1024 * 1024
    cache_bandwidth_bps: float = 400e6
    #: Rail power by state; standby is DEVSLP.
    power_active_w: float = 2.6
    power_idle_w: float = 0.65
    power_standby_w: float = 0.005
    #: DEVSLP exit/entry: duration and energy.
    wake_s: float = 0.025
    wake_energy_j: float = 0.02
    sleep_s: float = 0.005
    sleep_energy_j: float = 0.002
    #: Endurance rating (program/erase cycles per block).
    rated_erase_cycles: int = 3000

    def __post_init__(self) -> None:
        if self.capacity_bytes < self.page_bytes:
            raise ValueError(f"{self.name}: capacity below one page")
        if self.n_channels < 1:
            raise ValueError(f"{self.name}: n_channels must be >= 1")
        if self.page_bytes < 1 or self.pages_per_block < 1:
            raise ValueError(f"{self.name}: page/block geometry must be positive")
        if not 0 < self.overprovision <= 0.5:
            raise ValueError(f"{self.name}: overprovision must be in (0, 0.5]")
        if not 0 < self.gc_free_fraction < 0.5:
            raise ValueError(f"{self.name}: gc_free_fraction must be in (0, 0.5)")
        for field_name in (
            "page_read_s",
            "page_program_s",
            "block_erase_s",
            "cache_bandwidth_bps",
            "wake_s",
            "sleep_s",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{self.name}: {field_name} must be > 0")
        for field_name in (
            "page_read_energy_j",
            "page_program_energy_j",
            "block_erase_energy_j",
            "wake_energy_j",
            "sleep_energy_j",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{self.name}: {field_name} must be >= 0")
        if self.write_cache_bytes < 0:
            raise ValueError(f"{self.name}: write_cache_bytes must be >= 0")
        if not self.power_standby_w < self.power_idle_w <= self.power_active_w:
            raise ValueError(
                f"{self.name}: want standby < idle <= active power, got "
                f"{self.power_standby_w!r} / {self.power_idle_w!r} / "
                f"{self.power_active_w!r}"
            )
        if self.wake_energy_j < self.power_standby_w * self.wake_s:
            raise ValueError(f"{self.name}: wake energy below the standby floor")
        if self.rated_erase_cycles < 1:
            raise ValueError(f"{self.name}: rated_erase_cycles must be >= 1")

    # -- PowerEnvelope power economics (DEVSLP mapped onto "spin") -----------------

    @property
    def spinup_s(self) -> float:
        return self.wake_s

    @property
    def spindown_s(self) -> float:
        return self.sleep_s

    @property
    def spinup_energy_j(self) -> float:
        return self.wake_energy_j

    @property
    def spindown_energy_j(self) -> float:
        return self.sleep_energy_j

    @property
    def spinup_power_w(self) -> float:
        return self.wake_energy_j / self.wake_s

    @property
    def spindown_power_w(self) -> float:
        return self.sleep_energy_j / self.sleep_s

    @property
    def low_speed(self) -> Optional[LowSpeedProfile]:
        """SSDs have no low-RPM operating point."""
        return None

    @property
    def n_logical_pages(self) -> int:
        return self.capacity_bytes // self.page_bytes

    def pages_for(self, size_bytes: int) -> int:
        """Pages an extent of *size_bytes* occupies (at least one)."""
        return max(1, -(-size_bytes // self.page_bytes))

    def with_overrides(self, **overrides: object) -> "SSDSpec":
        """A copy with some fields replaced (sweep convenience)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    @staticmethod
    def for_config(config: "EEVFSConfig") -> "SSDSpec":
        """The flash device an SSD tier of *config* gets:
        :data:`SATA_SSD_32GB` with the config's sweep overrides applied."""
        overrides: Dict[str, object] = {}
        if config.ssd_capacity_mb is not None:
            overrides["capacity_bytes"] = config.ssd_capacity_mb * 1024 * 1024
        if config.ssd_channels is not None:
            overrides["n_channels"] = config.ssd_channels
        if config.ssd_gc_free_fraction is not None:
            overrides["gc_free_fraction"] = config.ssd_gc_free_fraction
        if not overrides:
            return SATA_SSD_32GB
        return replace(SATA_SSD_32GB, **overrides)  # type: ignore[arg-type]


#: A small SATA SSD of the paper's era -- the natural log-disk upgrade.
SATA_SSD_32GB = SSDSpec(name="sata-ssd-32g", capacity_bytes=32 * 1024**3)

#: A smaller, two-channel module: cheaper, more GC pressure.
SATA_SSD_8GB = SSDSpec(
    name="sata-ssd-8g",
    capacity_bytes=8 * 1024**3,
    n_channels=2,
    write_cache_bytes=16 * 1024 * 1024,
    power_active_w=2.1,
    power_idle_w=0.55,
)


class _ChannelJob:
    """One NAND operation batch bound for a single channel, with its NAND
    time (before any slowdown) and energy, worked out once when issued."""

    __slots__ = ("op", "channel", "pages", "priority", "done", "tag", "nand_s", "energy_j")

    def __init__(
        self,
        op: str,
        channel: int,
        pages: int,
        priority: int,
        done: Event,
        tag: object,
        nand_s: float,
        energy_j: float,
    ) -> None:
        self.op = op  # "read" | "program" | "gc"
        self.channel = channel
        self.pages = pages
        self.priority = priority
        self.done = done
        self.tag = tag
        self.nand_s = nand_s
        self.energy_j = energy_j


class _CacheEntry:
    """One dirty extent awaiting destage."""

    __slots__ = ("key", "size_bytes", "taken")

    def __init__(self, key: object, size_bytes: int) -> None:
        self.key = key
        self.size_bytes = size_bytes
        #: Set once the destager picks the entry up; a later overwrite
        #: of the same key must then stage a fresh entry.
        self.taken = False


class SSDBackend(StorageBackend):
    """A flash device attached to the simulation.

    :class:`~repro.disk.drive.StorageBackend` supplies the host queue,
    the DEVSLP power machine and the fault surface; this class adds the
    write cache, destager, FTL and channels.  A controller failure
    (:meth:`fail`) loses the write cache and fails every queued channel
    job, and a write still on the wire fails rather than completes.
    Slowdown scales NAND and cache operation times (thermal
    throttling, retries).
    """

    spec: SSDSpec

    def __init__(
        self,
        sim: Simulator,
        spec: SSDSpec,
        name: str = "ssd",
        auto_sleep_after: Optional[float] = None,
        spinup_jitter: float = 0.0,
        rng: Optional["np.random.Generator"] = None,
    ) -> None:
        super().__init__(
            sim,
            spec,
            name,
            auto_sleep_after=auto_sleep_after,
            spinup_jitter=spinup_jitter,
            rng=rng,
        )
        self.ftl = PageMappedFTL(
            n_logical_pages=spec.n_logical_pages,
            pages_per_block=spec.pages_per_block,
            n_channels=spec.n_channels,
            overprovision=spec.overprovision,
            gc_free_fraction=spec.gc_free_fraction,
        )
        self.extents = ExtentMap(spec.n_logical_pages)
        self._channel_queues = [
            Mailbox(sim, priority_key=lambda j: j.priority)
            for _ in range(spec.n_channels)
        ]
        #: Open span of each channel's job (observability only).
        self._channel_spans: List[Optional["Span"]] = [None] * spec.n_channels
        # Flash accounting beyond the FTL's own counters.
        self.host_pages_written = 0
        self.cache_hits = 0
        self._op_energy_j = 0.0
        # Write cache: FIFO of dirty extents + latest entry per key.
        self._dirty: Deque[_CacheEntry] = deque()
        self._dirty_by_key: Dict[object, _CacheEntry] = {}
        self._destaging_keys: Dict[object, int] = {}
        self._cache_used = 0
        #: Bumped whenever the cache accounting is wiped wholesale (on
        #: :meth:`fail`); a destage that straddles a wipe must not
        #: subtract its bytes from the already-zeroed counter.
        self._cache_wipes = 0
        self._cache_drained: Event = Event(sim)
        self._dirty_staged: Event = Event(sim)
        #: Concurrent internal activities (host service, destage, GC);
        #: drives the ACTIVE/IDLE meter state.
        self._busy = 0
        #: The host request in service or waiting, and its start time.
        self._request: Optional[DiskRequest] = None
        self._started = 0.0
        #: The extent being destaged, the cache-wipe count when it was
        #: taken, and its span.
        self._destage_entry: Optional[_CacheEntry] = None
        self._destage_wipes = 0
        self._destage_span: Optional["Span"] = None
        # Server, destager, channels and idle watchdog are flat
        # callbacks, each kicked off URGENT now: the slot its process
        # would start in.
        sim.call_soon(self._await_request, priority=URGENT)
        sim.call_soon(self._destage_next, priority=URGENT)
        for channel in range(spec.n_channels):
            sim.call_soon(self._await_job, channel, priority=URGENT)
        if auto_sleep_after is not None:
            sim.call_soon(self._watch, priority=URGENT)

    # -- public API ----------------------------------------------------------------

    @property
    def dirty_bytes(self) -> int:
        """Bytes staged in the write cache, not yet fully on flash."""
        return self._cache_used

    @property
    def write_amplification(self) -> float:
        """NAND pages programmed per host page accepted (0.0 until the
        first host write)."""
        if self.host_pages_written == 0:
            return 0.0
        return self.ftl.counters.nand_pages_programmed / self.host_pages_written

    def request_sleep(self) -> bool:
        """Enter DEVSLP if fully quiescent.  Returns True if begun.

        Unlike a drive, an SSD also refuses to sleep on a dirty write
        cache -- the destager is about to program flash.
        """
        if (
            self.state is not DiskState.IDLE
            or self.inflight > 0
            or self._busy > 0
            or self._dirty
        ):
            return False
        self._begin_transition(DiskState.SPIN_DOWN, DiskState.STANDBY, self.spec.sleep_s)
        return True

    def energy_j(self) -> float:
        """Joules consumed so far: rail power integral + NAND op energy."""
        return self.meter.energy_j(until=self.sim.now) + self._op_energy_j

    # -- internals ------------------------------------------------------------------

    def _on_fail(self) -> None:
        """Controller failure: every queued channel job fails and the
        write cache is lost."""
        for channel_queue in self._channel_queues:
            for job in channel_queue.drain():
                if not job.done.triggered:
                    job.done.fail(DiskFailureError(self.name))
                    job.done.defuse()
        self._dirty.clear()
        self._dirty_by_key.clear()
        self._destaging_keys.clear()
        self._cache_used = 0
        self._cache_wipes += 1
        # Release anything parked on cache backpressure or the destager's
        # wait-for-dirty; both re-check state/emptiness on wake-up.
        self._fire_cache_drained()
        self._fire_dirty_staged()

    def _busy_enter(self) -> None:
        self._busy += 1
        if self._busy == 1 and self.meter.state is DiskState.IDLE:
            self._set_state(DiskState.ACTIVE)

    def _busy_exit(self) -> None:
        self._busy -= 1
        if self._busy == 0 and self.meter.state is DiskState.ACTIVE:
            self._set_state(DiskState.IDLE)
            if self.inflight == 0:
                self._signal_idle()

    def _serviceable(self, resume: Callable[[Event], None]) -> bool:
        """True when the device can serve now.  Otherwise leave DEVSLP if
        asleep, subscribe *resume* to the pending transition and return
        False.  Raises :class:`DiskFailureError` on a dead device."""
        meter = self.meter
        while not meter.state.can_serve and meter.state is not DiskState.ACTIVE:
            if meter.state is DiskState.FAILED:
                raise DiskFailureError(self.name)
            if meter.state is DiskState.STANDBY:
                self.wake()
            pending = self._transition_done
            if pending.callbacks is not None:
                pending.callbacks.append(resume)
                return False
            if not pending._ok:
                pending._defused = True
                assert pending._exc is not None
                raise pending._exc
        return True

    def _watch(self, _value: Any = None) -> None:
        """One turn of the DEVSLP idle timer's loop (armed via
        ``auto_sleep_after``): time a fully quiescent period, or park
        until the device drains."""
        if (
            self.meter.state is DiskState.IDLE
            and self.inflight == 0
            and self._busy == 0
            and not self._dirty
        ):
            auto_sleep_after = self.auto_sleep_after
            assert auto_sleep_after is not None  # watchdog only started when set
            self._arm_watch_timer(auto_sleep_after, self.request_sleep)
        else:
            idle = self._idle_started
            assert idle.callbacks is not None
            idle.callbacks.append(self._watch)

    # -- host service ----------------------------------------------------------------

    def _await_request(self, _value: Any = None) -> None:
        """Server kick-off: park :meth:`_serve` on the host queue."""
        self.queue.take(self._serve)

    def _serve(self, arg: Any) -> None:
        """Start serving the request *arg* taken from the queue, or the
        held request once the transition event *arg* it waited on has
        ended."""
        request = self._request
        try:
            if request is None:
                request = self._request = arg
            elif not arg._ok:
                arg._defused = True
                assert arg._exc is not None
                raise arg._exc
            if not self._serviceable(self._serve):
                return
        except DiskFailureError as failure:
            self._request = None
            self.inflight -= 1
            assert request is not None and request.done is not None
            request.done.fail(failure)
            self._await_request()
            return
        self._busy_enter()
        self._started = self.sim.now
        if request.kind is RequestKind.WRITE:
            self._admit_write(None)
        else:
            self._serve_read(request)

    def _finish(self, failure: Optional[BaseException]) -> None:
        """Settle the held request -- served, or failed with *failure* --
        and take the next one."""
        request = self._request
        assert request is not None and request.done is not None
        self._request = None
        self.inflight -= 1
        self._busy_exit()
        if failure is None:
            self.requests_served += 1
            self.service_times.record(self.sim.now - self._started)
            request.done.succeed(request)
        elif not request.done.triggered:
            request.done.fail(failure)
        self.queue.take(self._serve)

    def _admit_write(self, drained: Optional[Event]) -> None:
        """Accept the held write into the cache (backpressure when full).

        Waits for destage progress until the data fits.  Extents larger
        than the whole cache pass once it is empty -- the cache then acts
        as a staging window, not a bound.
        """
        if drained is not None and self.meter.state is DiskState.FAILED:
            self._finish(DiskFailureError(self.name))
            return
        request = self._request
        assert request is not None
        size = request.size_bytes
        spec = self.spec
        if self._cache_used > 0 and self._cache_used + size > spec.write_cache_bytes:
            pending = self._cache_drained
            assert pending.callbacks is not None
            pending.callbacks.append(self._admit_write)
            return
        self.sim.call_later(
            self.slowdown * size / spec.cache_bandwidth_bps, self._cached, request
        )

    def _cached(self, request: DiskRequest) -> None:
        """The held write has crossed the host interface into the cache."""
        if self.meter.state is DiskState.FAILED:
            # The device died mid-transfer: the data never became durable
            # (unlike a drive, where an in-service request is already on
            # the platters at simulation granularity).
            self._finish(DiskFailureError(self.name))
            return
        size = request.size_bytes
        self.host_pages_written += self.spec.pages_for(size)
        key = self._extent_key(request)
        entry = self._dirty_by_key.get(key)
        if entry is not None and not entry.taken:
            # Write absorption: replace the still-pending dirty entry.
            self._cache_used += size - entry.size_bytes
            entry.size_bytes = size
        else:
            entry = _CacheEntry(key, size)
            self._dirty.append(entry)
            self._dirty_by_key[key] = entry
            self._cache_used += size
            self._fire_dirty_staged()
        self._finish(None)

    def _serve_read(self, request: DiskRequest) -> None:
        """Serve the held read: from the cache if dirty, else from flash."""
        size = request.size_bytes
        key = self._extent_key(request)
        if key in self._dirty_by_key or key in self._destaging_keys:
            self.cache_hits += 1
            self.sim.call_later(
                self.slowdown * size / self.spec.cache_bandwidth_bps, self._finish
            )
            return
        pages: Optional[Sequence[int]] = self.extents.lookup(key)
        if pages is None:
            # Content that predates the simulation (or was evicted):
            # synthesize its stripe without allocating logical space.
            count = self.spec.pages_for(size)
            span = self.ftl.n_logical_pages
            pages = range(count) if count <= span else [i % span for i in range(count)]
        per_channel = self.ftl.read_pages(pages)
        jobs = [
            self._issue_job("read", channel, count, 0, request.priority, tag=key)
            for channel, count in enumerate(per_channel)
            if count > 0
        ]
        # A read covers at least one page, so there is always a job.
        read = AllOf(self.sim, [job.done for job in jobs])
        assert read.callbacks is not None
        read.callbacks.append(self._flash_read)

    def _flash_read(self, event: Event) -> None:
        """The held read's channel jobs are done (or failed with the
        device)."""
        if event._ok:
            self._finish(None)
        else:
            event._defused = True
            self._finish(event._exc)

    @staticmethod
    def _extent_key(request: DiskRequest) -> object:
        """Extent identity for a request: the file id when the caller
        tagged one (``(op, file_id)`` tuples throughout the node), else
        the request itself (unique, never coalesced)."""
        tag = request.tag
        if isinstance(tag, tuple) and len(tag) == 2:
            return tag[1]
        if tag is not None:
            return tag
        return request.request_id

    # -- destage + GC ----------------------------------------------------------------

    def _fire_dirty_staged(self) -> None:
        event, self._dirty_staged = self._dirty_staged, Event(self.sim)
        event.succeed()

    def _fire_cache_drained(self) -> None:
        event, self._cache_drained = self._cache_drained, Event(self.sim)
        event.succeed()

    def _destage_next(self, event: Optional[Event] = None) -> None:
        """The destager: drain the write cache to flash, oldest extent
        first, then park on ``_dirty_staged``.  Runs from its kick-off,
        from ``_dirty_staged``, from the transition it waited on and
        after each extent (:meth:`_destaged`)."""
        if event is not None and not event._ok:
            # The transition it waited on failed with the device.
            event._defused = True
            self._destage_lost()
        while self._dirty:
            try:
                if not self._serviceable(self._destage_next):
                    return
            except DiskFailureError:
                self._destage_lost()
                continue
            entry = self._destage_entry = self._dirty.popleft()
            entry.taken = True
            self._destage_wipes = self._cache_wipes
            if self._dirty_by_key.get(entry.key) is entry:
                del self._dirty_by_key[entry.key]
            self._destaging_keys[entry.key] = self._destaging_keys.get(entry.key, 0) + 1
            self._busy_enter()
            tracer = self.sim.tracer
            if tracer is not None:
                self._destage_span = tracer.begin(
                    "ssd.destage", self.name, key=str(entry.key), bytes=entry.size_bytes
                )
            programmed = self._destage_one(entry)
            assert programmed.callbacks is not None
            programmed.callbacks.append(self._destaged)
            return
        pending = self._dirty_staged
        assert pending.callbacks is not None
        pending.callbacks.append(self._destage_next)

    def _destage_lost(self) -> None:
        """The device is dead; whatever is (or raced its way) into the
        cache is lost with it.  Clearing here also guarantees the
        destager re-parks instead of spinning."""
        self._dirty.clear()
        self._dirty_by_key.clear()
        self._cache_used = 0
        self._cache_wipes += 1

    def _destaged(self, event: Event) -> None:
        """The taken extent's channel jobs are done (or failed with the
        device); only a programmed extent frees cache."""
        ok = event._ok
        if not ok:
            event._defused = True
        entry = self._destage_entry
        assert entry is not None
        self._destage_entry = None
        span = self._destage_span
        if span is not None:
            self._destage_span = None
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end(span, ok=ok)
        self._busy_exit()
        self._forget_destaging(entry.key)
        if ok:
            if self._cache_wipes == self._destage_wipes:
                self._cache_used -= entry.size_bytes
            self._fire_cache_drained()
        self._destage_next()

    def _forget_destaging(self, key: object) -> None:
        remaining = self._destaging_keys.get(key, 0) - 1
        if remaining <= 0:
            self._destaging_keys.pop(key, None)
        else:
            self._destaging_keys[key] = remaining

    def _destage_one(self, entry: _CacheEntry) -> Event:
        """Program one extent: allocate logical space, run any GC the
        allocation triggers, then program the pages per channel.  Returns
        the event that fires when every channel job is done (an extent
        has at least one page, so there is always a program job)."""
        # An extent larger than the device overwrites the whole logical
        # space once -- the buffer tier cannot hold more than itself.
        n_pages = min(self.spec.pages_for(entry.size_bytes), self.extents.n_pages)
        logical_pages, evicted = self.extents.allocate(entry.key, n_pages)
        if evicted:
            self.ftl.trim_pages(evicted)
        plan = self.ftl.write_pages(logical_pages)
        jobs = [
            self._issue_job(
                "gc", event.channel, event.pages_moved, 1, PRIORITY_BACKGROUND,
                tag=event.block,
            )
            for event in plan.gc_events
        ]
        jobs.extend(
            self._issue_job(
                "program", channel, count, 0, PRIORITY_BACKGROUND, tag=entry.key
            )
            for channel, count in enumerate(plan.programs)
            if count > 0
        )
        return AllOf(self.sim, [job.done for job in jobs])

    # -- channels --------------------------------------------------------------------

    def _issue_job(
        self,
        op: str,
        channel: int,
        pages: int,
        erases: int,
        priority: int,
        tag: object = None,
    ) -> _ChannelJob:
        spec = self.spec
        if op == "read":
            nand_s = pages * spec.page_read_s
            energy_j = pages * spec.page_read_energy_j
        elif op == "program":
            nand_s = pages * spec.page_program_s
            energy_j = pages * spec.page_program_energy_j
        else:  # gc: relocation reads + programs, then the erase
            nand_s = pages * (spec.page_read_s + spec.page_program_s) + erases * spec.block_erase_s
            energy_j = (
                pages * (spec.page_read_energy_j + spec.page_program_energy_j)
                + erases * spec.block_erase_energy_j
            )
        job = _ChannelJob(op, channel, pages, priority, Event(self.sim), tag, nand_s, energy_j)
        self._channel_queues[channel].put(job)
        return job

    def _await_job(self, channel: int) -> None:
        """Channel kick-off: park :meth:`_run_job` on *channel*'s queue."""
        self._channel_queues[channel].take(self._run_job)

    def _run_job(self, job: _ChannelJob) -> None:
        self._busy_enter()
        # Slowdown is read when the job starts, not when it was issued.
        duration = self.slowdown * job.nand_s
        tracer = self.sim.tracer
        if tracer is not None:
            kind = "ssd.gc" if job.op == "gc" else "ssd.channel"
            self._channel_spans[job.channel] = tracer.begin(
                kind, self.name, channel=job.channel, op=job.op, pages=job.pages
            )
        self.sim.call_later(duration, self._job_done, job)

    def _job_done(self, job: _ChannelJob) -> None:
        span = self._channel_spans[job.channel]
        if span is not None:
            self._channel_spans[job.channel] = None
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end(span)
        self._op_energy_j += job.energy_j
        self._busy_exit()
        if not job.done.triggered:
            job.done.succeed(job)
        self._channel_queues[job.channel].take(self._run_job)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SSDBackend {self.name} {self.state.value} "
            f"inflight={self.inflight} WA={self.write_amplification:.2f} "
            f"erases={self.ftl.counters.blocks_erased}>"
        )
