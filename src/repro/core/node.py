"""The storage node (§III-A/B/C, §IV-B/C/D).

A storage node owns one buffer disk (the OS/log disk) and N data disks.
It handles four message types:

* :class:`CreateFile` -- round-robin local placement (§III-B),
* :class:`PrefetchCommand` -- copy popular files data disk -> buffer disk,
* :class:`AccessHints` -- install the predicted access pattern into the
  power manager (§IV-C),
* :class:`ForwardedRequest` -- serve a client: buffer disk if the file is
  prefetched (or its write is staged), the owning data disk otherwise,
  then ship the data straight to the client (Fig. 2 step 6).

Power management: every request entering the node triggers a sleep
evaluation across all local data disks ("we sleep a disk as a particular
request enters the storage client node", §VI-A); completions re-evaluate
the draining disk.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from repro.backend.ssd import SSDBackend, SSDSpec
from repro.core.config import EEVFSConfig, NODE_OVERHEAD_S, NodeSpec
from repro.core.metadata import NodeMetadata
from repro.core.power import PowerManager
from repro.core.prefetch import PrefetchStats
from repro.core.protocol import (
    AccessHints,
    CreateFile,
    FileData,
    ForwardedRequest,
    PrefetchCommand,
    PrefetchComplete,
    RepairCommand,
    RepairComplete,
    ReplicaData,
    ReplicaPull,
    RequestFailed,
    WriteAck,
)
from repro.core.writebuffer import WriteBuffer
from repro.disk.drive import (
    PRIORITY_BACKGROUND,
    PRIORITY_PREFETCH,
    RequestKind,
    SimDisk,
    StorageBackend,
)
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.sim.engine import hold_slot, Simulator
from repro.sim.events import AllOf, Event, URGENT
from repro.traces.model import RequestOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Span

#: Energy-aware destaging of buffered writes (§III-C): every check
#: interval, dirty files whose data disks are already awake are written
#: back; past the high-water fraction of the write buffer's capacity,
#: destaging proceeds even if it must wake disks.
DESTAGE_CHECK_INTERVAL_S = 10.0
DESTAGE_HIGHWATER_FRACTION = 0.8
#: Durability bound: dirty data older than this is written back even if
#: that means waking a data disk.
DESTAGE_MAX_DIRTY_AGE_S = 60.0


class StorageNode:
    """One storage node and its disk array."""

    #: What a data disk's idle timer does on expiry; the DRPM baseline
    #: overrides this to "low_speed".
    DISK_IDLE_ACTION = "standby"

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        spec: NodeSpec,
        config: EEVFSConfig,
        server_name: str = "server",
        spinup_jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.spec = spec
        self.config = config
        self.server_name = server_name
        self.endpoint = fabric.add_endpoint(spec.name, spec.nic_bps)

        power_managed = config.power_management_enabled and (
            config.prefetch_enabled or config.power_manage_without_prefetch
        )
        # The idle-window timer (§III-C) is always armed on power-managed
        # data disks; application hints add predictive sleeps and
        # wake-aheads on top of it (§IV-C: EEVFS "can operate without the
        # application hints ... relying solely on the idle window timers").
        timer = config.idle_threshold_s if power_managed else None
        self.buffer_disk = self._build_buffer_disk()
        self.data_disks: List[StorageBackend] = [
            self._build_data_disk(i, timer, spinup_jitter, rng)
            for i in range(spec.n_data_disks)
        ]
        self.metadata = NodeMetadata(
            n_data_disks=spec.n_data_disks,
            buffer_capacity_bytes=config.buffer_capacity_bytes,
            stripe_width=min(config.stripe_width, spec.n_data_disks),
        )
        self.power = PowerManager(
            sim,
            self.data_disks,
            idle_threshold_s=config.idle_threshold_s,
            wake_ahead=config.wake_ahead,
            predictor=config.window_predictor,
        )
        self._hints_power_managed = power_managed and config.use_hints
        self.write_buffer = WriteBuffer(capacity_bytes=config.buffer_capacity_bytes)
        self.prefetch_stats = PrefetchStats()
        #: The node's hinted request stream, sorted by (abs_time, file_id)
        #: and kept for pattern rebuilds after dynamic re-prefetches: the
        #: times and the file ids as two parallel typed arrays.
        self._hint_times: Optional[array[float]] = None
        self._hint_files: array[int] = array("q")

        # Request-plane counters (the RunResult raw material).
        self.buffer_hits = 0
        self.data_disk_hits = 0
        self.writes_buffered = 0
        self.writes_direct = 0
        self.writes_destaged = 0

        # Fault/replication plane (repro.faults, repro.replication).
        #: Whole-node failure flag; a crashed node answers nothing except
        #: the negative acks that keep waiters from stranding.
        self.crashed = False
        self.requests_failed_over = 0
        #: file_id -> the RepairCommand we are executing (awaiting data).
        self._pending_repairs: Dict[int, RepairCommand] = {}

        # Kicked off URGENT now: the slot a main-loop process would
        # start in.
        self.sim.call_soon(self._await_message, priority=URGENT)
        #: The destage pass in progress: the rest of its plan, and the
        #: files aged past the durability bound.
        self._destage_files: Iterator[Tuple[int, int]] = iter(())
        self._destage_aged: Set[int] = set()
        if config.write_buffering:
            sim.call_soon(
                lambda _value: sim.call_later(DESTAGE_CHECK_INTERVAL_S, self._destage_pass),
                priority=URGENT,
            )

    # -- backend construction ----------------------------------------------------------

    def _build_buffer_disk(self) -> StorageBackend:
        """The buffer (log) disk for whichever backend the config names.

        An HDD buffer disk never sleeps (it is the OS/log disk, §III-A);
        an SSD buffer tier may nap in DEVSLP between bursts when
        ``ssd_buffer_idle_s`` is set, because its break-even window is
        milliseconds rather than the spindle's tens of seconds.
        """
        name = f"{self.spec.name}/buffer"
        if self.config.buffer_backend == "ssd":
            return SSDBackend(
                self.sim,
                SSDSpec.for_config(self.config),
                name=name,
                auto_sleep_after=self.config.ssd_buffer_idle_s,
            )
        return SimDisk(self.sim, self.spec.buffer_spec, name=name)

    def _build_data_disk(
        self,
        index: int,
        timer: Optional[float],
        spinup_jitter: float,
        rng: Optional[np.random.Generator],
    ) -> StorageBackend:
        """One data disk for whichever backend the config names."""
        name = f"{self.spec.name}/data{index}"
        rng = None if rng is None or spinup_jitter == 0 else rng
        if self.config.data_backend == "ssd":
            if self.DISK_IDLE_ACTION != "standby":
                raise ValueError(
                    f"{name}: idle_action={self.DISK_IDLE_ACTION!r} needs a spinning "
                    f"drive; an SSD has no low-RPM operating point"
                )
            return SSDBackend(
                self.sim,
                SSDSpec.for_config(self.config),
                name=name,
                auto_sleep_after=timer,
                spinup_jitter=spinup_jitter,
                rng=rng,
            )
        return SimDisk(
            self.sim,
            self.spec.disk_spec,
            name=name,
            auto_sleep_after=timer,
            idle_action=self.DISK_IDLE_ACTION,
            spinup_jitter=spinup_jitter,
            rng=rng,
        )

    # -- energy accounting ------------------------------------------------------------

    @property
    def all_disks(self) -> List[StorageBackend]:
        return [self.buffer_disk, *self.data_disks]

    def disk_energy_j(self) -> float:
        """Joules consumed by the node's disks so far."""
        return sum(d.energy_j() for d in self.all_disks)

    def base_energy_j(self) -> float:
        """Joules consumed by everything-but-disks so far."""
        return self.spec.base_power_w * self.sim.now

    def energy_j(self) -> float:
        """Whole-node joules so far (the paper's measured quantity)."""
        return self.base_energy_j() + self.disk_energy_j()

    def transition_count(self) -> int:
        """Counted power-state transitions across the node's disks."""
        return sum(d.transition_count for d in self.all_disks)

    def finalize(self) -> None:
        """Close all disk energy accounts at the current time."""
        for disk in self.all_disks:
            disk.finalize()

    # -- whole-node faults (repro.faults) --------------------------------------------

    def crash(self) -> None:
        """Whole-node failure: every local disk stops serving at once.

        In-flight I/O raises :class:`DiskFailureError`, which sends the
        affected requests down the failover path.  Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self._pending_repairs.clear()
        for disk in self.all_disks:
            disk.fail()

    def repair_node(self) -> None:
        """Undo a :meth:`crash`: the node reboots with its disks spun
        down and data intact (an outage, not a media loss)."""
        if not self.crashed:
            return
        self.crashed = False
        for disk in self.all_disks:
            disk.repair()

    def _refuse(self, payload: object) -> None:
        """A crashed node answers nothing -- except where pure silence
        would strand a waiter forever.  Clients get a RequestFailed (or
        their request fails over), repair peers get negative acks; all
        three stand in for the sender's retry-on-timeout."""
        if isinstance(payload, ForwardedRequest) and not payload.silent:
            request = payload.request
            if payload.failover:
                self.requests_failed_over += 1
                self.fabric.send_nowait(
                    self.spec.name,
                    payload.failover[0],
                    ForwardedRequest(
                        request=request, failover=payload.failover[1:]
                    ),
                )
            else:
                self.fabric.send_nowait(
                    self.spec.name,
                    request.client,
                    RequestFailed(
                        request_id=request.request_id,
                        file_id=request.file_id,
                        reason=f"{self.spec.name} is down",
                    ),
                )
        elif isinstance(payload, ReplicaPull):
            self.fabric.send_nowait(
                self.spec.name,
                payload.requester,
                ReplicaData(file_id=payload.file_id, size_bytes=0, ok=False),
            )
        elif isinstance(payload, RepairCommand):
            self.fabric.send_nowait(
                self.spec.name,
                self.server_name,
                RepairComplete(
                    file_id=payload.file_id, node=self.spec.name, ok=False
                ),
            )
        # Everything else (hints, prefetch commands, silent write copies,
        # replica data) is simply lost with the node.

    # -- the inbox handler ---------------------------------------------------------------

    def _await_message(self, _value: Any = None) -> None:
        """Park :meth:`_on_message` on the inbox (kick-off, and resume
        after a blocking prefetch copy)."""
        self.endpoint.inbox.take(self._on_message)

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if self.crashed:
            self._refuse(payload)
        elif isinstance(payload, ForwardedRequest):
            # Serve concurrently; different disks must overlap.
            _Serve(self, payload)
        elif isinstance(payload, CreateFile):
            self.metadata.create(
                payload.file_id, payload.size_bytes, disk=payload.target_disk
            )
        elif isinstance(payload, PrefetchCommand):
            # Blocking on the copy loop is intentional: the server
            # does not release the workload until every node acks.
            self.sim.call_soon(self._prefetch, payload, priority=URGENT)
            return
        elif isinstance(payload, AccessHints):
            self._install_hints(payload)
        elif isinstance(payload, RepairCommand):
            self.sim.call_soon(self._start_repair, payload, priority=URGENT)
        elif isinstance(payload, ReplicaPull):
            self.sim.call_soon(self._serve_pull, payload, priority=URGENT)
        elif isinstance(payload, ReplicaData):
            self.sim.call_soon(self._finish_repair, payload, priority=URGENT)
        else:  # pragma: no cover - defensive
            raise TypeError(f"storage node cannot handle {payload!r}")
        self.endpoint.inbox.take(self._on_message)

    # -- prefetch (Fig. 2 step 3) -----------------------------------------------------------

    def _prefetch(self, command: PrefetchCommand) -> None:
        """Copy *command*'s files to the buffer disk, then ack.

        Files copy one at a time: stripe reads from the data disks, then
        one sequential write to the buffer disk.  The inbox handler is
        parked meanwhile (the server releases the workload only once
        every node has acked) and resumes where the copies end.
        """
        started = self.sim.now
        if command.replace:
            # Dynamic re-prefetch: drop copies that fell out of the hot
            # set (metadata-only -- log-disk space is reclaimed lazily).
            wanted = set(command.file_ids)
            for file_id in self.metadata.prefetched_files():
                if file_id not in wanted:
                    self.metadata.unmark_prefetched(file_id)
        self.prefetch_stats.files_requested += len(command.file_ids)
        self._prefetch_next(command, iter(command.file_ids), started)

    def _prefetch_next(
        self, command: PrefetchCommand, files: Iterator[int], started: float
    ) -> None:
        """Copy the next of *files* that fits, or finish the command."""
        for file_id in files:
            if self.metadata.can_prefetch(file_id):
                break
            self.prefetch_stats.skipped_capacity += 1
        else:
            self._prefetched(command, started)
            return
        size = self.metadata.size_of(file_id)
        stripe = self.metadata.stripe_size_bytes(file_id)
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin("prefetch.copy", self.spec.name, file_id=file_id, bytes=size)

        def copied(ok: bool) -> None:
            # A dead source (or buffer) disk costs this file its buffer
            # copy, not the node its copy loop.
            if span is not None and tracer is not None:
                tracer.end(span, ok=ok)
            if ok:
                self.metadata.mark_prefetched(file_id)
                self.prefetch_stats.files_copied += 1
                self.prefetch_stats.bytes_copied += size
            self._prefetch_next(command, files, started)

        def read(event: Event) -> None:
            if not _survived(event):
                copied(False)
                return
            write = self.buffer_disk.submit(
                size,
                kind=RequestKind.WRITE,
                sequential=True,
                tag=("prefetch", file_id),
                priority=PRIORITY_PREFETCH,
            )
            _on(write.done, lambda event: copied(_survived(event)))

        reads = [
            self.data_disks[disk].submit(
                stripe,
                kind=RequestKind.READ,
                tag=("prefetch", file_id),
                priority=PRIORITY_PREFETCH,
            )
            for disk in self.metadata.stripe_disks(file_id)
        ]
        _on(AllOf(self.sim, [r.done for r in reads]), read)

    def _prefetched(self, command: PrefetchCommand, started: float) -> None:
        """The copies are over: ack if asked to; the inbox handler then
        resumes in the slot of the copy process's completion event."""
        stats = self.prefetch_stats
        stats.duration_s = self.sim.now - started
        if command.replace:
            # The buffer's contents changed under the power manager:
            # rebuild the per-disk patterns from the remaining future.
            self._rebuild_patterns()
        if not command.ack:
            self.sim.call_soon(self._await_message)
            return
        complete = PrefetchComplete(
            node=self.spec.name,
            files_copied=stats.files_copied,
            bytes_copied=stats.bytes_copied,
        )
        _on(
            self.fabric.send(self.spec.name, self.server_name, complete),
            lambda _event: self.sim.call_soon(self._await_message),
        )

    # -- destaging (energy-aware write-back) --------------------------------------------------

    def _destage_pass(self, over_highwater: Optional[bool]) -> None:
        """Write dirty buffer data back to data disks, energy-aware.

        Opportunistic: a dirty file destages when every disk of its
        stripe is already awake (no wake-up charged to write-back).
        Forced: past the high-water mark the oldest dirty data destages
        regardless, waking disks if needed -- bounded staleness beats an
        overflowing buffer.  A timer starts each pass (*over_highwater*
        None); the end of each copy, one file at a time, resumes it.
        """
        if over_highwater is None:
            over_highwater = self._write_buffer_over_highwater()
            self._destage_aged = set(
                self.write_buffer.aged_files(self.sim.now, DESTAGE_MAX_DIRTY_AGE_S)
            )
            self._destage_files = iter(self.write_buffer.destage_plan())
        for file_id, _size in self._destage_files:
            if file_id not in self.metadata:
                continue
            disks = [self.data_disks[i] for i in self.metadata.stripe_disks(file_id)]
            awake = all(d.state.can_serve and d.inflight == 0 for d in disks)
            if awake or over_highwater or file_id in self._destage_aged:
                break
        else:
            self.sim.call_later(DESTAGE_CHECK_INTERVAL_S, self._destage_pass)
            return
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin("destage.copy", self.spec.name, file_id=file_id)
        done = Event(self.sim)
        _on(done, lambda event: self._destaged(event, span, over_highwater))
        self.sim.call_soon(lambda _value: self._destage_one(file_id, done), priority=URGENT)

    def _destaged(self, done: Event, span: Optional[Span], over_highwater: bool) -> None:
        """A copy is over; after a dead target disk the data stays
        (safely) dirty on the buffer disk."""
        ok = _survived(done)
        tracer = self.sim.tracer
        if span is not None and tracer is not None:
            tracer.end(span, ok=ok)
        self._destage_pass(self._write_buffer_over_highwater() if ok else over_highwater)

    def _write_buffer_over_highwater(self) -> bool:
        capacity = self.write_buffer.capacity_bytes
        if capacity is None or capacity == 0:
            return False
        fraction = self.write_buffer.dirty_bytes / capacity
        return fraction >= DESTAGE_HIGHWATER_FRACTION

    def _destage_one(self, file_id: int, done: Event) -> None:
        """Read staged data from the buffer log, write to the data disks;
        *done* succeeds once they are written, or fails as a dead drive
        did.

        The dirty entry is removed only once the data-disk writes have
        completed, so concurrent reads keep hitting the (still current)
        buffer copy throughout the write-back.
        """
        size = dict(self.write_buffer.destage_plan())[file_id]

        def read(event: Event) -> None:
            if not _survived(event):
                done.fail(event._value)
                return
            stripe = -(-size // self.metadata.stripe_width)
            targets = self.metadata.stripe_disks(file_id)
            writes = [
                self.data_disks[i].submit(
                    stripe,
                    kind=RequestKind.WRITE,
                    tag=("destage", file_id),
                    priority=PRIORITY_BACKGROUND,
                )
                for i in targets
            ]

            def written(event: Event) -> None:
                if not _survived(event):
                    done.fail(event._value)
                    return
                # A fresh write may have re-dirtied the file mid-destage;
                # in that case keep the newer staged data.
                if dict(self.write_buffer.destage_plan()).get(file_id) == size:
                    self.write_buffer.destage(file_id)
                self.writes_destaged += 1
                for i in targets:
                    self.power.evaluate(i)
                done.succeed()

            _on(AllOf(self.sim, [w.done for w in writes]), written)

        request = self.buffer_disk.submit(
            size,
            kind=RequestKind.READ,
            sequential=True,
            tag=("destage", file_id),
            priority=PRIORITY_BACKGROUND,
        )
        _on(request.done, read)

    # -- hints (Fig. 2 step 4) ---------------------------------------------------------------

    def _install_hints(self, hints: AccessHints) -> None:
        """Build per-disk future access lists and arm the power manager.

        The node first reconstructs its *own* request stream (every hinted
        access to any of its files, in time order).  Accesses to
        prefetched files are then *excluded* from the per-disk patterns --
        the buffer disk will serve them, which is precisely how
        prefetching manufactures longer data-disk idle windows (§IV-B) --
        but they still occupy positions in the stream, which is what the
        sequence predictor counts.
        """
        if not self._hints_power_managed:
            return
        stream: List[Tuple[float, int]] = []
        for file_id, arrivals in hints.arrivals.items():
            if file_id in self.metadata:
                stream.extend((hints.epoch_s + t, file_id) for t in arrivals)
        stream.sort()
        self._hint_times = times = array("d", map(itemgetter(0), stream))
        self._hint_files = array("q", map(itemgetter(1), stream))
        del stream  # the typed arrays are the stream from here on

        per_disk_times, per_disk_seqs = self._patterns_from_stream(since_s=None)
        if len(times) >= 2:
            hint_gap = (times[-1] - times[0]) / (len(times) - 1)
        else:
            hint_gap = None
        self.power.set_hints(per_disk_times, per_disk_seqs, hint_gap_s=hint_gap)

    def _patterns_from_stream(
        self, since_s: Optional[float]
    ) -> Tuple[List[List[float]], List[List[int]]]:
        """Per-disk (times, sequence numbers) for non-buffer-served
        accesses in the hinted stream, optionally only those at or after
        *since_s*.  Sequence numbers are absolute stream positions, so a
        rebuild stays aligned with the power manager's arrival counter."""
        times = self._hint_times
        assert times is not None
        file_ids = self._hint_files
        per_disk_times: List[List[float]] = [[] for _ in self.data_disks]
        per_disk_seqs: List[List[int]] = [[] for _ in self.data_disks]
        start = 0 if since_s is None else bisect_left(times, since_s)
        for seq in range(start, len(times)):
            abs_t = times[seq]
            file_id = file_ids[seq]
            if self.metadata.is_prefetched(file_id):
                continue
            for disk in self.metadata.stripe_disks(file_id):
                per_disk_times[disk].append(abs_t)
                per_disk_seqs[disk].append(seq)
        return per_disk_times, per_disk_seqs

    def _rebuild_patterns(self) -> None:
        """Refresh the power manager after a buffer-content change."""
        if not self._hints_power_managed or self._hint_times is None:
            return
        per_disk_times, per_disk_seqs = self._patterns_from_stream(
            since_s=self.sim.now
        )
        self.power.set_hints(per_disk_times, per_disk_seqs, reset_clock=False)

    # -- request service (Fig. 2 steps 5-6) -------------------------------------------------------
    # A :class:`_Serve` serves each forwarded request; these two hooks are
    # the routing decisions a caching baseline overrides.

    def _route_read(self, file_id: int) -> Tuple[Optional[int], str]:
        """Pick the serving medium for a read: buffer copy, staged write,
        or the owning data disk.  (Overridden by caching baselines.)"""
        if self.metadata.is_prefetched(file_id) or file_id in self.write_buffer.dirty_files:
            self.buffer_hits += 1
            return None, "buffer"
        disk_index = self.metadata.disk_of(file_id)
        self.data_disk_hits += 1
        return disk_index, f"data{disk_index}"

    def _after_read(self, file_id: int, disk_index: Optional[int]) -> None:
        """Hook invoked after a read completes (before the reply is sent).

        The EEVFS node does nothing here; on-demand caching baselines
        (MAID) use it to admit the just-read file into their cache.
        """

    # -- repair data plane (repro.replication) ------------------------------------------

    def _start_repair(self, command: RepairCommand) -> None:
        """RepairCommand handler (we are the repair *target*): pull the
        bytes from the surviving source holder."""
        self._pending_repairs[command.file_id] = command
        self._send_last(
            command.source, ReplicaPull(file_id=command.file_id, requester=self.spec.name)
        )

    def _serve_pull(self, pull: ReplicaPull) -> None:
        """ReplicaPull handler (we are the *source*): read the file and
        ship it to the repair target.

        Energy awareness: a prefetched (or dirty-staged) file is read
        from the buffer disk, which never sleeps -- repair traffic then
        wakes no spindle on the source side.  Repair I/O rides at
        background priority behind client requests either way.
        """
        file_id = pull.file_id
        if file_id not in self.metadata:
            self._ship_replica(pull, 0, False)
            return
        size = self.metadata.size_of(file_id)
        if self.metadata.is_prefetched(file_id) or file_id in self.write_buffer.dirty_files:
            read = self.buffer_disk.submit(
                size,
                kind=RequestKind.READ,
                sequential=True,
                tag=("repair", file_id),
                priority=PRIORITY_BACKGROUND,
            ).done
        else:
            stripe = self.metadata.stripe_size_bytes(file_id)
            ios = [
                self.data_disks[target].submit(
                    stripe,
                    kind=RequestKind.READ,
                    tag=("repair", file_id),
                    priority=PRIORITY_BACKGROUND,
                )
                for target in self.metadata.stripe_disks(file_id)
            ]
            read = AllOf(self.sim, [io.done for io in ios])
        _on(read, lambda event: self._ship_replica(pull, size, _survived(event)))

    def _ship_replica(self, pull: ReplicaPull, size: int, ok: bool) -> None:
        self._send_last(
            pull.requester,
            ReplicaData(file_id=pull.file_id, size_bytes=size, ok=ok),
            size if ok else None,
        )

    def _finish_repair(self, data: ReplicaData) -> None:
        """ReplicaData handler (we are the *target* again): write the new
        replica locally, then report to the server.

        Energy awareness: the replica lands on an already-awake data disk
        when one exists (least queued first); only an all-asleep array
        falls back to the node's round-robin default and wakes a disk.
        """
        if self._pending_repairs.pop(data.file_id, None) is None:
            # crash() dropped the context; the manager will retry.
            self.sim.call_soon(hold_slot)
        elif not data.ok:
            self._report_repair(data.file_id, False)
        else:
            if data.file_id not in self.metadata:
                self.metadata.create(data.file_id, data.size_bytes, disk=self._replica_disk())
            stripe = self.metadata.stripe_size_bytes(data.file_id)
            ios = [
                self.data_disks[target].submit(
                    stripe,
                    kind=RequestKind.WRITE,
                    tag=("repair", data.file_id),
                    priority=PRIORITY_BACKGROUND,
                )
                for target in self.metadata.stripe_disks(data.file_id)
            ]
            written = AllOf(self.sim, [io.done for io in ios])
            _on(written, lambda event: self._report_repair(data.file_id, _survived(event)))

    def _report_repair(self, file_id: int, ok: bool) -> None:
        self._send_last(
            self.server_name, RepairComplete(file_id=file_id, node=self.spec.name, ok=ok)
        )

    def _send_last(self, dst: str, payload: object, size_bytes: Optional[int] = None) -> None:
        """A repair step's last act: send *payload*; where it is
        delivered, hold the slot of the step's completion event."""
        _on(
            self.fabric.send(self.spec.name, dst, payload, size_bytes=size_bytes),
            lambda event: self.sim.call_soon(hold_slot),
        )

    def _replica_disk(self) -> Optional[int]:
        """Awake data disk with the shortest queue, or None (letting the
        round-robin default pick, at the price of a wake-up)."""
        awake = [
            i for i, disk in enumerate(self.data_disks) if disk.state.can_serve
        ]
        if not awake:
            return None
        return min(awake, key=lambda i: (self.data_disks[i].inflight, i))


def _on(event: Event, fn: Callable[[Event], None]) -> None:
    """Run ``fn(event)`` where *event* is dispatched."""
    assert event.callbacks is not None
    event.callbacks.append(fn)


def _survived(event: Event) -> bool:
    """Whether the drives behind an awaited *event* all survived.  A dead
    drive's :class:`~repro.disk.drive.DiskFailureError` is handled here,
    so it is defused."""
    if not event._ok:
        event._defused = True
    return event._ok


class _Serve:
    """One forwarded request's service at a node, as flat callbacks.

    The stages, in order: the optional node overhead; routing to the
    buffer disk (a staged write, a prefetched or dirty file's read) or to
    the data disks (write-through, a data-disk read); the reply.  A dead
    drive sends the request down the failure branch instead: dropped
    when it is a silent fan-out copy, handed to the next holder when it
    has a failover list, answered with :class:`RequestFailed` otherwise.
    With a tracer attached, a ``node.dispatch`` span covers the whole
    service, reply delivery included.

    Each stage runs in the slot where the per-request generator process
    resumed: the kick-off URGENT, the overhead through ``call_later``,
    each disk wait and the reply delivery as a callback on the event the
    process waited on (a failed one ``_defused`` and handled by the old
    ``except`` branch).  :func:`hold_slot` takes the slot of the
    process's completion event.
    """

    __slots__ = (
        "node",
        "forwarded",
        "span",
        "entered_at",
        "size",
        "targets",
        "disk_index",
        "served_by",
        "disk_started",
    )

    def __init__(self, node: StorageNode, forwarded: ForwardedRequest) -> None:
        self.node = node
        self.forwarded = forwarded
        node.sim.call_soon(self._start, priority=URGENT)

    def _start(self, _value: Any) -> None:
        node = self.node
        sim = node.sim
        tracer = sim.tracer
        self.span = None
        if tracer is not None:
            request = self.forwarded.request
            self.span = tracer.begin(
                "node.dispatch",
                node.spec.name,
                parent=tracer.request_span(request.request_id),
                file_id=request.file_id,
                op=request.op.name,
            )
        sim.call_later(NODE_OVERHEAD_S, self._enter)

    def _enter(self, _value: Any) -> None:
        """Route the request and submit its disk I/O."""
        node = self.node
        # Advance the node's request-stream clock (sequence counter +
        # inter-arrival EWMA) before any routing decision.
        node.power.note_node_arrival()
        now = self.entered_at = node.sim.now
        request = self.forwarded.request
        file_id = request.file_id
        size = self.size = node.metadata.size_of(file_id)
        if request.op is RequestOp.WRITE:
            # Stage to the buffer disk when allowed and it fits; otherwise
            # write through to the data disks (waking them if needed).
            if (
                node.config.write_buffering
                and node.config.prefetch_enabled
                and node.write_buffer.can_stage(size)
            ):
                node.write_buffer.stage(file_id, size, time_s=now)
                io = node.buffer_disk.submit(
                    size, kind=RequestKind.WRITE, sequential=True, tag=("write", file_id)
                )
                done = io.done
                assert done.callbacks is not None
                done.callbacks.append(self._staged)
                return
            targets = self.targets = node.metadata.stripe_disks(file_id)
            stripe = node.metadata.stripe_size_bytes(file_id)
            for target in targets:
                node.power.note_arrival(target)
            ios = [
                node.data_disks[target].submit(
                    stripe, kind=RequestKind.WRITE, tag=("write", file_id)
                )
                for target in targets
            ]
            written = AllOf(node.sim, [io.done for io in ios])
            assert written.callbacks is not None
            written.callbacks.append(self._written)
            return
        disk_index, self.served_by = node._route_read(file_id)
        self.disk_index = disk_index
        targets = [] if disk_index is None else node.metadata.stripe_disks(file_id)
        # Consume the prediction entries and probe sleep opportunities
        # across all disks *at request entry* (§VI-A).
        for target in targets:
            node.power.note_arrival(target)
        node.power.evaluate_all(exclude=targets)
        self.disk_started = now
        if disk_index is None:
            read = node.buffer_disk.submit(
                size, kind=RequestKind.READ, tag=("read", file_id)
            ).done
        else:
            # One stripe read per disk, in parallel; the request completes
            # when the slowest stripe lands.
            stripe = node.metadata.stripe_size_bytes(file_id)
            ios = [
                node.data_disks[target].submit(
                    stripe, kind=RequestKind.READ, tag=("read", file_id)
                )
                for target in targets
            ]
            read = AllOf(node.sim, [io.done for io in ios])
        assert read.callbacks is not None
        read.callbacks.append(self._read)

    def _staged(self, event: Event) -> None:
        """The write is staged on the buffer disk."""
        if not event._ok:
            self._failed(event)
            return
        self.node.writes_buffered += 1
        self._write_acked("buffer")

    def _written(self, event: Event) -> None:
        """The write went through to every stripe of the data disks."""
        if not event._ok:
            self._failed(event)
            return
        node = self.node
        node.writes_direct += 1
        for target in self.targets:
            node.power.evaluate(target)
        self._write_acked(f"data{self.targets[0]}")

    def _write_acked(self, served_by: str) -> None:
        request = self.forwarded.request
        self._reply(
            WriteAck(
                request_id=request.request_id,
                file_id=request.file_id,
                served_by=served_by,
            ),
            None,
            None,
        )

    def _read(self, event: Event) -> None:
        """The read's bytes are in: build the reply once, with its times."""
        if not event._ok:
            self._failed(event)
            return
        node = self.node
        request = self.forwarded.request
        disk_index = self.disk_index
        node._after_read(request.file_id, disk_index)
        now = node.sim.now
        # Positional, as FileData's fields are ordered: (request_id,
        # file_id, size_bytes, served_by, node_time_s, disk_time_s).
        reply = FileData(
            request.request_id,
            request.file_id,
            self.size,
            self.served_by,
            now - self.entered_at + NODE_OVERHEAD_S,
            now - self.disk_started,
        )
        self._reply(reply, self.size, disk_index)

    def _failed(self, event: Event) -> None:
        """A needed drive is dead: the ``except DiskFailureError`` branch."""
        event._defused = True
        node = self.node
        forwarded = self.forwarded
        request = forwarded.request
        if forwarded.silent:
            # A lost fan-out write copy is the repair loop's problem,
            # not the client's: the primary already acked.
            self._end()
        elif forwarded.failover:
            # Degraded read/write: hand the request to the next live
            # holder.  (Stands in for the client's retry-on-timeout;
            # collapsing it keeps the failure path deterministic.)
            node.requests_failed_over += 1
            sent = node.fabric.send(
                node.spec.name,
                forwarded.failover[0],
                ForwardedRequest(request=request, failover=forwarded.failover[1:]),
            )
            assert sent.callbacks is not None
            sent.callbacks.append(self._end)
        else:
            reply = RequestFailed(
                request_id=request.request_id,
                file_id=request.file_id,
                reason=str(event._exc),
            )
            self._reply(reply, None, None)

    def _reply(
        self, reply: object, reply_size: Optional[int], disk_index: Optional[int]
    ) -> None:
        node = self.node
        if self.forwarded.silent:
            # Fan-out copy applied; only the primary replies.
            self._end()
            return
        request = self.forwarded.request
        # A drained disk is a fresh sleep opportunity.
        if disk_index is not None:
            for target in node.metadata.stripe_disks(request.file_id):
                node.power.evaluate(target)
        if reply_size is None:
            sent = node.fabric.send(node.spec.name, request.client, reply)
        else:
            sent = node.fabric.send(
                node.spec.name, request.client, reply, size_bytes=reply_size
            )
        assert sent.callbacks is not None
        sent.callbacks.append(self._end)

    def _end(self, _sent: Optional[Event] = None) -> None:
        """Service is over (its reply, if any, delivered)."""
        span = self.span
        if span is not None:
            tracer = self.node.sim.tracer
            if tracer is not None:
                tracer.end(span)
        self.node.sim.call_soon(hold_slot)
