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
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.backend import build_backend, tier_spec
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
    DiskFailureError,
    PRIORITY_BACKGROUND,
    PRIORITY_PREFETCH,
    RequestKind,
    StorageBackend,
)
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.sim.engine import hold_slot, Simulator
from repro.sim.events import Event, URGENT
from repro.traces.model import RequestOp


class StorageNode:
    """One storage node process and its disk array."""

    #: What a data disk's idle timer does on expiry; the DRPM baseline
    #: overrides this to "low_speed".
    DISK_IDLE_ACTION = "standby"
    #: Two-stage DRPM: further idle seconds at low speed before standby
    #: (None = single-stage behaviour).
    DISK_SECOND_STAGE_S: Optional[float] = None

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
        self.reprefetch_rounds = 0
        self.files_evicted = 0

        # Request-plane counters (the RunResult raw material).
        self.buffer_hits = 0
        self.data_disk_hits = 0
        self.writes_buffered = 0
        self.writes_direct = 0
        self.writes_destaged = 0
        self.bytes_destaged = 0
        self.requests_served = 0
        self.requests_failed = 0

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
        if config.write_buffering and config.destage_enabled:
            sim.process(self._destage_loop())

    # -- backend construction ----------------------------------------------------------

    def _build_buffer_disk(self) -> StorageBackend:
        """The buffer (log) disk for whichever backend the config names.

        An HDD buffer disk never sleeps (it is the OS/log disk, §III-A);
        an SSD buffer tier may nap in DEVSLP between bursts when
        ``ssd_buffer_idle_s`` is set, because its break-even window is
        milliseconds rather than the spindle's tens of seconds.
        """
        spec = tier_spec(self.config, "buffer", self.spec.buffer_spec)
        idle = (
            self.config.ssd_buffer_idle_s
            if self.config.buffer_backend == "ssd"
            else None
        )
        return build_backend(
            self.sim,
            spec,
            name=f"{self.spec.name}/buffer",
            auto_sleep_after=idle,
        )

    def _build_data_disk(
        self,
        index: int,
        timer: Optional[float],
        spinup_jitter: float,
        rng: Optional[np.random.Generator],
    ) -> StorageBackend:
        """One data disk for whichever backend the config names."""
        spec = tier_spec(self.config, "data", self.spec.disk_spec)
        return build_backend(
            self.sim,
            spec,
            name=f"{self.spec.name}/data{index}",
            auto_sleep_after=timer,
            idle_action=self.DISK_IDLE_ACTION,
            second_stage_after=self.DISK_SECOND_STAGE_S,
            spinup_jitter=spinup_jitter,
            rng=(None if rng is None or spinup_jitter == 0 else rng),
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
                self.requests_failed += 1
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

    # -- the node process ----------------------------------------------------------------

    def _await_message(self, _value: Any = None) -> None:
        """Park :meth:`_on_message` on the inbox (kick-off, and resume
        after a blocking prefetch copy)."""
        self.endpoint.inbox.take(self._on_message)

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if self.crashed:
            self._refuse(payload)
        elif isinstance(payload, CreateFile):
            self.metadata.create(
                payload.file_id, payload.size_bytes, disk=payload.target_disk
            )
        elif isinstance(payload, PrefetchCommand):
            # Blocking on the copy loop is intentional: the server
            # does not release the workload until every node acks.
            copy = self.sim.process(self._do_prefetch(payload))
            assert copy.callbacks is not None
            copy.callbacks.append(self._await_message)
            return
        elif isinstance(payload, AccessHints):
            self._install_hints(payload)
        elif isinstance(payload, ForwardedRequest):
            # Serve concurrently; different disks must overlap.
            _Serve(self, payload)
        elif isinstance(payload, RepairCommand):
            self.sim.process(self._start_repair(payload))
        elif isinstance(payload, ReplicaPull):
            self.sim.process(self._serve_pull(payload))
        elif isinstance(payload, ReplicaData):
            self.sim.process(self._finish_repair(payload))
        else:  # pragma: no cover - defensive
            raise TypeError(f"storage node cannot handle {payload!r}")
        self.endpoint.inbox.take(self._on_message)

    # -- prefetch (Fig. 2 step 3) -----------------------------------------------------------

    def _do_prefetch(self, command: PrefetchCommand) -> Generator[Event, Any, None]:
        started = self.sim.now
        if command.replace:
            # Dynamic re-prefetch: drop copies that fell out of the hot
            # set (metadata-only -- log-disk space is reclaimed lazily).
            wanted = set(command.file_ids)
            for file_id in self.metadata.prefetched_files():
                if file_id not in wanted:
                    self.metadata.unmark_prefetched(file_id)
                    self.files_evicted += 1
            self.reprefetch_rounds += 1
        self.prefetch_stats.files_requested += len(command.file_ids)
        for file_id in command.file_ids:
            if not self.metadata.can_prefetch(file_id):
                self.prefetch_stats.skipped_capacity += 1
                continue
            size = self.metadata.size_of(file_id)
            stripe = self.metadata.stripe_size_bytes(file_id)
            tracer = self.sim.tracer
            copy_span = None
            if tracer is not None:
                copy_span = tracer.begin(
                    "prefetch.copy", self.spec.name, file_id=file_id, bytes=size
                )
            try:
                reads = [
                    self.data_disks[disk].submit(
                        stripe,
                        kind=RequestKind.READ,
                        tag=("prefetch", file_id),
                        priority=PRIORITY_PREFETCH,
                    )
                    for disk in self.metadata.stripe_disks(file_id)
                ]
                yield self.sim.all_of([r.done for r in reads])
                write = self.buffer_disk.submit(
                    size,
                    kind=RequestKind.WRITE,
                    sequential=True,
                    tag=("prefetch", file_id),
                    priority=PRIORITY_PREFETCH,
                )
                yield write.done
            except DiskFailureError:
                # A dead source (or buffer) disk costs this file its
                # buffer copy, not the node its prefetch loop.
                if copy_span is not None:
                    tracer.end(copy_span, ok=False)
                continue
            if copy_span is not None:
                tracer.end(copy_span, ok=True)
            self.metadata.mark_prefetched(file_id)
            self.prefetch_stats.files_copied += 1
            self.prefetch_stats.bytes_copied += size
        self.prefetch_stats.duration_s = self.sim.now - started
        if command.replace:
            # The buffer's contents changed under the power manager:
            # rebuild the per-disk patterns from the remaining future.
            self._rebuild_patterns()
        if command.ack:
            yield self.fabric.send(
                self.spec.name,
                self.server_name,
                PrefetchComplete(
                    node=self.spec.name,
                    files_copied=self.prefetch_stats.files_copied,
                    bytes_copied=self.prefetch_stats.bytes_copied,
                ),
            )

    # -- destaging (energy-aware write-back) --------------------------------------------------

    def _destage_loop(self) -> Generator[Event, Any, None]:
        """Write dirty buffer data back to data disks, energy-aware.

        Opportunistic: a dirty file destages when every disk of its
        stripe is already awake (no wake-up charged to write-back).
        Forced: past the high-water mark the oldest dirty data destages
        regardless, waking disks if needed -- bounded staleness beats an
        overflowing buffer.
        """
        interval = self.config.destage_check_interval_s
        max_age = self.config.destage_max_dirty_age_s
        while True:
            yield self.sim.timeout(interval)
            over_highwater = self._write_buffer_over_highwater()
            aged = set(self.write_buffer.aged_files(self.sim.now, max_age))
            for file_id, _size in self.write_buffer.destage_plan():
                if file_id not in self.metadata:
                    continue
                disks = [self.data_disks[i] for i in self.metadata.stripe_disks(file_id)]
                awake = all(d.state.can_serve and d.inflight == 0 for d in disks)
                if awake or over_highwater or file_id in aged:
                    tracer = self.sim.tracer
                    span = None
                    if tracer is not None:
                        span = tracer.begin(
                            "destage.copy", self.spec.name, file_id=file_id
                        )
                    try:
                        yield self.sim.process(self._destage_one(file_id))
                    except DiskFailureError:
                        # Target disk died; the data stays (safely) dirty
                        # on the buffer disk.
                        if span is not None:
                            tracer.end(span, ok=False)
                        continue
                    if span is not None:
                        tracer.end(span, ok=True)
                    over_highwater = self._write_buffer_over_highwater()

    def _write_buffer_over_highwater(self) -> bool:
        capacity = self.write_buffer.capacity_bytes
        if capacity is None or capacity == 0:
            return False
        fraction = self.write_buffer.dirty_bytes / capacity
        return fraction >= self.config.destage_highwater_fraction

    def _destage_one(self, file_id: int) -> Generator[Event, Any, None]:
        """Read staged data from the buffer log, write to the data disks.

        The dirty entry is removed only once the data-disk writes have
        completed, so concurrent reads keep hitting the (still current)
        buffer copy throughout the write-back.
        """
        size = dict(self.write_buffer.destage_plan())[file_id]
        read = self.buffer_disk.submit(
            size,
            kind=RequestKind.READ,
            sequential=True,
            tag=("destage", file_id),
            priority=PRIORITY_BACKGROUND,
        )
        yield read.done
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
        yield self.sim.all_of([w.done for w in writes])
        # A fresh write may have re-dirtied the file mid-destage; in that
        # case keep the newer staged data.
        if dict(self.write_buffer.destage_plan()).get(file_id) == size:
            self.write_buffer.destage(file_id)
        self.writes_destaged += 1
        self.bytes_destaged += size
        for i in targets:
            self.power.evaluate(i)

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

    def _start_repair(self, command: RepairCommand) -> Generator[Event, Any, None]:
        """RepairCommand handler (we are the repair *target*): pull the
        bytes from the surviving source holder."""
        self._pending_repairs[command.file_id] = command
        yield self.fabric.send(
            self.spec.name,
            command.source,
            ReplicaPull(file_id=command.file_id, requester=self.spec.name),
        )

    def _serve_pull(self, pull: ReplicaPull) -> Generator[Event, Any, None]:
        """ReplicaPull handler (we are the *source*): read the file and
        ship it to the repair target.

        Energy awareness: a prefetched (or dirty-staged) file is read
        from the buffer disk, which never sleeps -- repair traffic then
        wakes no spindle on the source side.  Repair I/O rides at
        background priority behind client requests either way.
        """
        file_id = pull.file_id
        ok = True
        size = 0
        if file_id not in self.metadata:
            ok = False
        else:
            size = self.metadata.size_of(file_id)
            try:
                if (
                    self.metadata.is_prefetched(file_id)
                    or file_id in self.write_buffer.dirty_files
                ):
                    io = self.buffer_disk.submit(
                        size,
                        kind=RequestKind.READ,
                        sequential=True,
                        tag=("repair", file_id),
                        priority=PRIORITY_BACKGROUND,
                    )
                    yield io.done
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
                    yield self.sim.all_of([io.done for io in ios])
            except DiskFailureError:
                ok = False
        if ok:
            yield self.fabric.send(
                self.spec.name,
                pull.requester,
                ReplicaData(file_id=file_id, size_bytes=size, ok=True),
                size_bytes=size,
            )
        else:
            yield self.fabric.send(
                self.spec.name,
                pull.requester,
                ReplicaData(file_id=file_id, size_bytes=size, ok=False),
            )

    def _finish_repair(self, data: ReplicaData) -> Generator[Event, Any, None]:
        """ReplicaData handler (we are the *target* again): write the new
        replica locally, then report to the server.

        Energy awareness: the replica lands on an already-awake data disk
        when one exists (least queued first); only an all-asleep array
        falls back to the node's round-robin default and wakes a disk.
        """
        command = self._pending_repairs.pop(data.file_id, None)
        if command is None:
            return  # crash() dropped the context; the manager will retry
        ok = data.ok
        if ok:
            try:
                if data.file_id not in self.metadata:
                    self.metadata.create(
                        data.file_id, data.size_bytes, disk=self._replica_disk()
                    )
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
                yield self.sim.all_of([io.done for io in ios])
            except DiskFailureError:
                ok = False
        yield self.fabric.send(
            self.spec.name,
            self.server_name,
            RepairComplete(file_id=data.file_id, node=self.spec.name, ok=ok),
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
            written = node.sim.all_of([io.done for io in ios])
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
        node.power.evaluate_all(exclude=targets or None)
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
            read = node.sim.all_of([io.done for io in ios])
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
        reply = FileData(
            request_id=request.request_id,
            file_id=request.file_id,
            size_bytes=self.size,
            served_by=self.served_by,
            node_time_s=now - self.entered_at + NODE_OVERHEAD_S,
            disk_time_s=now - self.disk_started,
        )
        self._reply(reply, self.size, disk_index)

    def _failed(self, event: Event) -> None:
        """A needed drive is dead: the ``except DiskFailureError`` branch."""
        event._defused = True
        node = self.node
        forwarded = self.forwarded
        request = forwarded.request
        node.requests_failed += 1
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
        node.requests_served += 1
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
