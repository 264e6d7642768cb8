"""Flat callbacks vs the generators they replaced, on full cluster runs.

The hot path runs on flat callbacks: the fabric's :class:`_Delivery`
continuation, :class:`Link` grants through ``call_soon``, the disk and
SSD servers, the SSD destager and channels, the inbox handlers of the
storage server, storage node, client and metadata server, the node's
per-request :class:`_Serve` chain, the paced replayer, device
transitions (failed spin-ups included), the power manager's time-based
waker and the idle watchdogs.  Each one replaced generator or grant
machinery, and the replacement must be *invisible*.  The generators
live on here as test-only oracles, each the parent's method body
verbatim as a function of ``self`` (calls to replaced methods renamed
to their oracles), patched onto the kick-off callback of the flat
version, which schedules it in the slot the parent's process kick-off
took (for delivery, onto ``Fabric.send``/``send_nowait``; for the paced
replayer, onto ``ClientDriver.replay``).  A watchdog oracle is
interrupted the way ``Process.interrupt`` did it; that delivery lives
only here now.  Ids call the oracle path ``gen`` and the product path
``cont``.

Two levels of identity are pinned:

* **The rebuilt paths keep every event in its schedule slot.**  With
  every oracle and the ``Resource``-based link grant patched in, a run
  dispatches the same number of events, with the same schedule-shape
  digest (time, sequence counter and outcome per event), and ends with
  a bit-identical :meth:`~repro.core.filesystem.RunResult.record`.  The
  scenarios add write-through, replicated writes over dead drives (the
  serve chain's silent, failover and failed-reply branches), flaky
  spin-ups, a two-stage DRPM node with the time predictor (the
  watchdog's transition wait and the waker) and device faults to whole
  runs; a device drill fails an HDD and an SSD mid-transition,
  mid-write, mid-read and mid-destage, which walks the servers' and
  destager's ``_defused`` paths.
* **Delivery is metric-identical.**  One generator process per message
  adds a completion event that a fire-and-forget send never schedules,
  so only the record can match (compared as canonical JSON, whose
  floats round-trip: equality here is bit equality).
"""

import contextlib
from dataclasses import replace as replace_dataclass
from typing import Any, Dict

import pytest

from repro.backend import SATA_SSD_8GB
from repro.backend.ssd import _CacheEntry, SSDBackend
from repro.baselines.drpm import drpm_cluster, TwoStageDRPMNode
from repro.core import EEVFSConfig, run_eevfs
from repro.core.client import _PacedReplay, ClientDriver, NOT_LEADER
from repro.core.filesystem import canonical_json, EEVFSCluster
from repro.core.node import _Serve, StorageNode
from repro.core.power import PowerManager
from repro.core.protocol import (
    AccessHints,
    CreateFile,
    FileData,
    FileRequest,
    ForwardedRequest,
    next_request_id,
    PrefetchCommand,
    PrefetchComplete,
    RepairCommand,
    RepairComplete,
    ReplicaData,
    ReplicaPull,
    RequestFailed,
    WriteAck,
)
from repro.core.server import StorageServer
from repro.devtools.racesuite import default_scenarios
from repro.devtools.sanitizer import EventStreamHasher, ScheduleShapeHasher
from repro.disk import ATA_80GB_TYPE1
from repro.disk.drive import (
    DiskFailureError,
    DiskRequest,
    PRIORITY_BACKGROUND,
    RequestKind,
    SimDisk,
    StorageBackend,
)
from repro.disk.states import DiskState
from repro.faults import FaultSchedule
from repro.metaplane.messages import AppendEntries, AppendReply, VoteReply, VoteRequest
from repro.metaplane.server import LEADER, MetadataServer
from repro.net.fabric import Fabric
from repro.net.link import Link
from repro.net.message import Message
from repro.sim import Simulator
from repro.sim.events import Event, PENDING, URGENT
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.traces.model import RequestOp
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload

CONFIGS = [
    EEVFSConfig(),
    EEVFSConfig(prefetch_enabled=False),
    EEVFSConfig(online_mode=True),
]
CONFIG_IDS = ["prefetch", "no-prefetch", "online"]

# -- the link grant: one capacity-1 Resource per wire -------------------------------

#: Link -> the Resource standing in for its wire while an oracle is patched in.
_WIRES: Dict[Link, Resource] = {}


def _wire(link):
    wire = _WIRES.get(link)
    if wire is None:
        wire = _WIRES[link] = Resource(link.sim, capacity=1)
    return wire


def _oracle_acquire(self, fn):
    """``Link.acquire`` as the parent granted it: a ``Request`` event."""
    slot = _wire(self).request()
    slot.callbacks.append(lambda _event: fn(None))


def _oracle_release(self):
    wire = _wire(self)
    wire.release(wire._users[0])


# -- delivery: one generator process per message ------------------------------------


def _oracle_deliver(fabric, sender, receiver, message):
    """One message as one generator process: the reference delivery."""
    message.sent_at = fabric.sim.now
    tracer = fabric.sim.tracer
    span = None
    if tracer is not None:
        request_id = getattr(message.payload, "request_id", None)
        span = tracer.begin(
            "net.transfer",
            f"net:{sender.name}",
            parent=None if request_id is None else tracer.request_span(request_id),
            src=message.src,
            dst=message.dst,
            bytes=message.size_bytes,
            payload=type(message.payload).__name__,
        )
    rate = min(sender.tx.bandwidth_bps, receiver.rx.bandwidth_bps)
    duration = fabric.latency_s + message.size_bytes / rate
    rx_hold = message.size_bytes / receiver.rx.bandwidth_bps
    with _wire(sender.tx).request() as tx_slot:
        yield tx_slot
        with _wire(receiver.rx).request() as rx_slot:
            yield rx_slot
            yield fabric.sim.timeout(rx_hold)
            receiver.rx.bytes_sent += message.size_bytes
        remaining = duration - rx_hold
        if remaining > 0:
            yield fabric.sim.timeout(remaining)
        sender.tx.bytes_sent += message.size_bytes
        fabric.messages_sent += 1
        fabric.bytes_sent += message.size_bytes
    message.delivered_at = fabric.sim.now
    if fabric._partitioned and (
        message.src in fabric._partitioned or message.dst in fabric._partitioned
    ):
        fabric.messages_dropped += 1
        if span is not None and tracer is not None:
            tracer.end(span, dropped=True)
        return None
    if span is not None and tracer is not None:
        tracer.end(span)
    receiver.messages_received += 1
    yield receiver.inbox.put(message)
    return message


def _oracle_send(fabric, src, dst, payload, size_bytes=None):
    sender = fabric.endpoint(src)
    receiver = fabric.endpoint(dst)
    if src == dst:
        raise ValueError(f"endpoint {src!r} cannot send to itself")
    message = (
        Message(src=src, dst=dst, payload=payload)
        if size_bytes is None
        else Message(src=src, dst=dst, payload=payload, size_bytes=size_bytes)
    )
    return fabric.sim.process(_oracle_deliver(fabric, sender, receiver, message))


def _oracle_send_nowait(fabric, src, dst, payload, size_bytes=None):
    _oracle_send(fabric, src, dst, payload, size_bytes)


# -- the disk server ------------------------------------------------------------------


def _oracle_disk_server(self):
    sim = self.sim
    while True:
        request: DiskRequest = yield self.queue.get()
        # Wait out any transition in progress, then leave standby.
        try:
            while not self.state.can_serve:
                if self.state is DiskState.FAILED:
                    raise DiskFailureError(self.name)
                if self.state is DiskState.STANDBY:
                    self.wake()
                yield self._transition_done
        except DiskFailureError as failure:
            # The drive died while this request waited; fail it and
            # go back to the queue (a repair may revive the drive).
            self.inflight -= 1
            assert request.done is not None
            request.done.fail(failure)
            continue
        low = self.state.is_low_speed
        self._set_state(DiskState.LOW_ACTIVE if low else DiskState.ACTIVE)
        model = self.service_low if low else self.service
        assert model is not None  # low implies a multi-speed spec
        duration = self.slowdown * model.service_time(
            request.size_bytes, sequential=request.sequential
        )
        tracer = sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "disk.service",
                self.name,
                io=request.kind.value,
                bytes=request.size_bytes,
            )
        yield sim.timeout(duration)
        if span is not None and tracer is not None:
            tracer.end(span)
        self.inflight -= 1
        self.requests_served += 1
        self.bytes_served += request.size_bytes
        self.service_times.record(duration)
        if self.state is not DiskState.FAILED and self.queue.size == 0:
            self._set_state(DiskState.LOW_IDLE if low else DiskState.IDLE)
            if self.inflight == 0:
                self._signal_idle()
        assert request.done is not None
        request.done.succeed(request)


# -- the SSD server, destager and channels -------------------------------------------


def _oracle_until_serviceable(self):
    """Wait out transitions / leave DEVSLP; raises on a dead device."""
    while not self.state.can_serve and self.state is not DiskState.ACTIVE:
        if self.state is DiskState.FAILED:
            raise DiskFailureError(self.name)
        if self.state is DiskState.STANDBY:
            self.wake()
        yield self._transition_done


def _oracle_ssd_server(self):
    sim = self.sim
    while True:
        request: DiskRequest = yield self.queue.get()
        try:
            yield from _oracle_until_serviceable(self)
        except DiskFailureError as failure:
            self.inflight -= 1
            assert request.done is not None
            request.done.fail(failure)
            continue
        self._busy_enter()
        started = sim.now
        try:
            if request.kind is RequestKind.WRITE:
                yield from _oracle_serve_write(self, request)
            else:
                yield from _oracle_serve_read(self, request)
        except DiskFailureError as failure:
            self.inflight -= 1
            self._busy_exit()
            assert request.done is not None
            if not request.done.triggered:
                request.done.fail(failure)
            continue
        self.inflight -= 1
        self._busy_exit()
        self.requests_served += 1
        self.bytes_served += request.size_bytes
        self.service_times.record(sim.now - started)
        assert request.done is not None
        request.done.succeed(request)


def _oracle_serve_write(self, request):
    """Accept a write into the cache (backpressure when full)."""
    size = request.size_bytes
    spec = self.spec
    while self._cache_used > 0 and self._cache_used + size > spec.write_cache_bytes:
        yield self._cache_drained
        if self.state is DiskState.FAILED:
            raise DiskFailureError(self.name)
    yield self.sim.timeout(self.slowdown * size / spec.cache_bandwidth_bps)
    if self.state is DiskState.FAILED:
        raise DiskFailureError(self.name)
    self.host_pages_written += spec.pages_for(size)
    key = self._extent_key(request)
    entry = self._dirty_by_key.get(key)
    if entry is not None and not entry.taken:
        self._cache_used += size - entry.size_bytes
        entry.size_bytes = size
    else:
        entry = _CacheEntry(key, size)
        self._dirty.append(entry)
        self._dirty_by_key[key] = entry
        self._cache_used += size
        self._fire_dirty_staged()


def _oracle_serve_read(self, request):
    """Serve a read: from the cache if dirty, else from flash."""
    size = request.size_bytes
    key = self._extent_key(request)
    if key in self._dirty_by_key or key in self._destaging_keys:
        self.cache_hits += 1
        yield self.sim.timeout(self.slowdown * size / self.spec.cache_bandwidth_bps)
        return
    pages = self.extents.lookup(key)
    if pages is None:
        count = self.spec.pages_for(size)
        span = self.ftl.n_logical_pages
        pages = range(count) if count <= span else [i % span for i in range(count)]
    per_channel = self.ftl.read_pages(pages)
    jobs = [
        self._issue_job("read", channel, count, 0, request.priority, tag=key)
        for channel, count in enumerate(per_channel)
        if count > 0
    ]
    if jobs:
        yield self.sim.all_of([job.done for job in jobs])


def _oracle_ssd_destager(self):
    """Drain the write cache to flash, oldest extent first."""
    sim = self.sim
    while True:
        if not self._dirty:
            yield self._dirty_staged
            continue
        try:
            yield from _oracle_until_serviceable(self)
        except DiskFailureError:
            self._dirty.clear()
            self._dirty_by_key.clear()
            self._cache_used = 0
            self._cache_wipes += 1
            continue
        entry = self._dirty.popleft()
        entry.taken = True
        wipes_at_take = self._cache_wipes
        if self._dirty_by_key.get(entry.key) is entry:
            del self._dirty_by_key[entry.key]
        self._destaging_keys[entry.key] = self._destaging_keys.get(entry.key, 0) + 1
        self._busy_enter()
        tracer = sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "ssd.destage", self.name, key=str(entry.key), bytes=entry.size_bytes
            )
        try:
            yield from _oracle_destage_one(self, entry)
        except DiskFailureError:
            if span is not None and tracer is not None:
                tracer.end(span, ok=False)
            self._busy_exit()
            self._forget_destaging(entry.key)
            continue
        if span is not None and tracer is not None:
            tracer.end(span, ok=True)
        self._busy_exit()
        self._forget_destaging(entry.key)
        if self._cache_wipes == wipes_at_take:
            self._cache_used -= entry.size_bytes
        self._fire_cache_drained()


def _oracle_destage_one(self, entry):
    n_pages = min(self.spec.pages_for(entry.size_bytes), self.extents.n_pages)
    logical_pages, evicted = self.extents.allocate(entry.key, n_pages)
    if evicted:
        self.ftl.trim_pages(evicted)
    plan = self.ftl.write_pages(logical_pages)
    jobs = [
        self._issue_job(
            "gc", event.channel, event.pages_moved, 1, PRIORITY_BACKGROUND, tag=event.block
        )
        for event in plan.gc_events
    ]
    jobs.extend(
        self._issue_job("program", channel, count, 0, PRIORITY_BACKGROUND, tag=entry.key)
        for channel, count in enumerate(plan.programs)
        if count > 0
    )
    if jobs:
        yield self.sim.all_of([job.done for job in jobs])


def _oracle_channel(self, channel):
    sim = self.sim
    queue = self._channel_queues[channel]
    while True:
        job = yield queue.get()
        self._busy_enter()
        duration = self._job_duration_s(job)
        tracer = sim.tracer
        span = None
        if tracer is not None:
            kind = "ssd.gc" if job.op == "gc" else "ssd.channel"
            span = tracer.begin(
                kind, self.name, channel=channel, op=job.op, pages=job.pages
            )
        yield sim.timeout(duration)
        if span is not None and tracer is not None:
            tracer.end(span)
        self._op_energy_j += self._job_energy_j(job)
        self._busy_exit()
        if not job.done.triggered:
            job.done.succeed(job)


# -- the inbox loops -------------------------------------------------------------------


def _oracle_server_main(self):
    while True:
        message = yield self.endpoint.receive()
        payload = message.payload
        if isinstance(payload, FileRequest):
            tracer = self.sim.tracer
            lookup = None
            if tracer is not None:
                lookup = tracer.begin(
                    "server.lookup",
                    self.name,
                    parent=tracer.request_span(payload.request_id),
                    file_id=payload.file_id,
                )
            if self.config.server_overhead_s > 0:
                yield self.sim.timeout(self.config.server_overhead_s)
            if self.replan_source is not None:
                self.replan_source.record(self.sim.now, payload.file_id)
            holders = self.metadata.live_holders(payload.file_id)
            if not holders:
                self.requests_unroutable += 1
                self.fabric.send_nowait(
                    self.name,
                    payload.client,
                    RequestFailed(
                        request_id=payload.request_id,
                        file_id=payload.file_id,
                        reason="no live holder",
                    ),
                )
                if lookup is not None:
                    tracer.end(lookup, routed=False)
                continue
            primary, backups = holders[0], tuple(holders[1:])
            self.fabric.send_nowait(
                self.name,
                primary,
                ForwardedRequest(request=payload, failover=backups),
            )
            self.requests_forwarded += 1
            if lookup is not None:
                tracer.end(lookup, routed=True, node=primary)
            if payload.op is RequestOp.WRITE and self.config.replicate_writes and backups:
                for holder in backups:
                    self.fabric.send_nowait(
                        self.name,
                        holder,
                        ForwardedRequest(request=payload, silent=True),
                    )
                    self.writes_fanned_out += 1
        elif isinstance(payload, PrefetchComplete):
            self._prefetch_acks_pending -= 1
            if self._prefetch_acks_pending == 0 and self._prefetch_all_acked:
                self._prefetch_all_acked.succeed()
        elif isinstance(payload, RepairComplete):
            if self.repairer is not None:
                self.repairer.on_complete(payload)
        else:  # pragma: no cover - defensive
            raise TypeError(f"server cannot handle {payload!r}")


def _oracle_node_main(self):
    while True:
        message = yield self.endpoint.receive()
        payload = message.payload
        if self.crashed:
            self._refuse(payload)
            continue
        if isinstance(payload, CreateFile):
            self.metadata.create(payload.file_id, payload.size_bytes, disk=payload.target_disk)
        elif isinstance(payload, PrefetchCommand):
            yield self.sim.process(self._do_prefetch(payload))
        elif isinstance(payload, AccessHints):
            self._install_hints(payload)
        elif isinstance(payload, ForwardedRequest):
            self.sim.process(_oracle_node_serve(self, payload))
        elif isinstance(payload, RepairCommand):
            self.sim.process(self._start_repair(payload))
        elif isinstance(payload, ReplicaPull):
            self.sim.process(self._serve_pull(payload))
        elif isinstance(payload, ReplicaData):
            self.sim.process(self._finish_repair(payload))
        else:  # pragma: no cover - defensive
            raise TypeError(f"storage node cannot handle {payload!r}")


def _oracle_client_dispatch(self):
    while True:
        message = yield self.endpoint.receive()
        payload = message.payload
        if isinstance(payload, (FileData, WriteAck)):
            if payload.request_id in self._settled:
                self.duplicate_replies += 1
                continue
            issued = self._pending.pop(payload.request_id, None)
            if issued is None:  # pragma: no cover - defensive
                raise KeyError(f"response for unknown request {payload!r}")
            self._settled.add(payload.request_id)
            elapsed = self.sim.now - issued
            self.response_times.record(elapsed)
            if isinstance(payload, FileData):
                self.latency_components["disk_s"].record(payload.disk_time_s)
                self.latency_components["node_other_s"].record(
                    max(0.0, payload.node_time_s - payload.disk_time_s)
                )
                self.latency_components["network_server_s"].record(
                    max(0.0, elapsed - payload.node_time_s)
                )
            self.completions.append(
                (payload.request_id, payload.file_id, payload.served_by, elapsed)
            )
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end_request(payload.request_id, ok=True, served_by=payload.served_by)
            waiter = self._waiters.pop(payload.request_id, None)
            if waiter is not None:
                waiter()  # a settlement callback now, where it was an event
            if self._replay_finished and not self._pending:
                self._drained.succeed()
        elif isinstance(payload, RequestFailed):
            if payload.request_id in self._settled or payload.request_id not in self._pending:
                self.duplicate_replies += 1
                continue
            if payload.reason == NOT_LEADER:
                self.router.note_failure(payload.file_id, payload.hint)
            self._failure_signal(payload.request_id, payload.reason)
        else:  # pragma: no cover - defensive
            raise TypeError(f"client cannot handle {payload!r}")


def _oracle_meta_main(self):
    while True:
        message = yield self.endpoint.receive()
        if not self.alive:
            continue
        payload = message.payload
        if isinstance(payload, FileRequest):
            yield from _oracle_meta_handle_request(self, payload)
        elif isinstance(payload, VoteRequest):
            self._on_vote_request(payload)
        elif isinstance(payload, VoteReply):
            self._on_vote_reply(payload)
        elif isinstance(payload, AppendEntries):
            self._on_append(payload)
        elif isinstance(payload, AppendReply):
            self._on_append_reply(payload)
        else:  # pragma: no cover - defensive
            raise TypeError(f"metadata server cannot handle {payload!r}")


def _oracle_meta_handle_request(self, payload):
    if self.role != LEADER:
        self.plane.note_rejection(self.shard)
        self.fabric.send_nowait(
            self.name,
            payload.client,
            RequestFailed(
                request_id=payload.request_id,
                file_id=payload.file_id,
                reason="not leader",
                hint=None if self.leader_hint == self.name else self.leader_hint,
            ),
        )
        return
    tracer = self.sim.tracer
    lookup = None
    if tracer is not None:
        lookup = tracer.begin(
            "server.lookup",
            self.name,
            parent=tracer.request_span(payload.request_id),
            file_id=payload.file_id,
            shard=self.shard,
        )
    if self.config.server_overhead_s > 0:
        yield self.sim.timeout(self.config.server_overhead_s)
    self.plane.note_request(self.shard)
    if payload.file_id not in self.state:
        holders = []
    else:
        holders = self.state.live_holders(payload.file_id)
    if not holders:
        self.plane.requests_unroutable += 1
        self.fabric.send_nowait(
            self.name,
            payload.client,
            RequestFailed(
                request_id=payload.request_id,
                file_id=payload.file_id,
                reason="no live holder",
            ),
        )
        if lookup is not None and tracer is not None:
            tracer.end(lookup, routed=False)
        return
    primary, backups = holders[0], tuple(holders[1:])
    self.fabric.send_nowait(
        self.name,
        primary,
        ForwardedRequest(request=payload, failover=backups),
    )
    if lookup is not None and tracer is not None:
        tracer.end(lookup, routed=True, node=primary)
    if payload.op is RequestOp.WRITE and self.config.replicate_writes and backups:
        for holder in backups:
            self.fabric.send_nowait(
                self.name,
                holder,
                ForwardedRequest(request=payload, silent=True),
            )
            self.plane.writes_fanned_out += 1


# -- the node's per-request chain ---------------------------------------------------


def _oracle_node_serve(self, forwarded):
    """Wrap :meth:`_serve_inner` in a ``node.dispatch`` span when
    observability is attached; otherwise delegate at zero cost."""
    tracer = self.sim.tracer
    if tracer is None:
        yield from _oracle_node_serve_inner(self, forwarded)
        return
    request = forwarded.request
    span = tracer.begin(
        "node.dispatch",
        self.spec.name,
        parent=tracer.request_span(request.request_id),
        file_id=request.file_id,
        op=request.op.name,
    )
    try:
        yield from _oracle_node_serve_inner(self, forwarded)
    finally:
        tracer.end(span)


def _oracle_node_serve_inner(self, forwarded):
    request = forwarded.request
    if self.config.node_overhead_s > 0:
        yield self.sim.timeout(self.config.node_overhead_s)
    # Advance the node's request-stream clock (sequence counter +
    # inter-arrival EWMA) before any routing decision.
    self.power.note_node_arrival()
    entered_at = self.sim.now

    try:
        reply, reply_size, disk_index = yield from _oracle_node_serve_io(self, request)
        if isinstance(reply, FileData):
            reply = replace_dataclass(
                reply,
                node_time_s=self.sim.now - entered_at + self.config.node_overhead_s,
            )
    except DiskFailureError as failure:
        self.requests_failed += 1
        if forwarded.silent:
            # A lost fan-out write copy is the repair loop's problem,
            # not the client's: the primary already acked.
            return
        if forwarded.failover:
            # Degraded read/write: hand the request to the next live
            # holder.  (Stands in for the client's retry-on-timeout;
            # collapsing it keeps the failure path deterministic.)
            self.requests_failed_over += 1
            yield self.fabric.send(
                self.spec.name,
                forwarded.failover[0],
                ForwardedRequest(
                    request=request, failover=forwarded.failover[1:]
                ),
            )
            return
        reply = RequestFailed(
            request_id=request.request_id,
            file_id=request.file_id,
            reason=str(failure),
        )
        reply_size = None
        disk_index = None
    if forwarded.silent:
        # Fan-out copy applied; only the primary replies.
        return
    self.requests_served += 1
    # A drained disk is a fresh sleep opportunity.
    if disk_index is not None:
        for target in self.metadata.stripe_disks(request.file_id):
            self.power.evaluate(target)
    if reply_size is None:
        yield self.fabric.send(self.spec.name, request.client, reply)
    else:
        yield self.fabric.send(
            self.spec.name, request.client, reply, size_bytes=reply_size
        )


def _oracle_node_serve_io(self, request):
    """The I/O half of :meth:`_serve`; raises DiskFailureError when a
    needed drive is dead.  Returns (reply, reply_size, disk_index)."""
    file_id = request.file_id
    size = self.metadata.size_of(file_id)
    if request.op is RequestOp.WRITE:
        served_by = yield from _oracle_node_serve_write(self, file_id, size)
        reply: object = WriteAck(
            request_id=request.request_id, file_id=file_id, served_by=served_by
        )
        return reply, None, None  # control-sized ack
    else:
        disk_index, served_by = self._route_read(file_id)
        targets = [] if disk_index is None else self.metadata.stripe_disks(file_id)
        # Consume the prediction entries and probe sleep opportunities
        # across all disks *at request entry* (§VI-A).
        for target in targets:
            self.power.note_arrival(target)
        self.power.evaluate_all(exclude=targets or None)
        disk_started = self.sim.now
        if disk_index is None:
            io = self.buffer_disk.submit(
                size, kind=RequestKind.READ, tag=("read", file_id)
            )
            yield io.done
        else:
            # One stripe read per disk, in parallel; the request
            # completes when the slowest stripe lands.
            stripe = self.metadata.stripe_size_bytes(file_id)
            ios = [
                self.data_disks[target].submit(
                    stripe, kind=RequestKind.READ, tag=("read", file_id)
                )
                for target in targets
            ]
            yield self.sim.all_of([io.done for io in ios])
        self._after_read(file_id, disk_index)
        reply = FileData(
            request_id=request.request_id,
            file_id=file_id,
            size_bytes=size,
            served_by=served_by,
            disk_time_s=self.sim.now - disk_started,
        )
        return reply, size, disk_index


def _oracle_node_serve_write(self, file_id, size):
    """Write path: stage to the buffer disk when allowed and it fits;
    otherwise write through to the data disk (waking it if needed)."""
    use_buffer = (
        self.config.write_buffering
        and self.config.prefetch_enabled
        and self.write_buffer.can_stage(size)
    )
    if use_buffer:
        self.write_buffer.stage(file_id, size, time_s=self.sim.now)
        io = self.buffer_disk.submit(
            size, kind=RequestKind.WRITE, sequential=True, tag=("write", file_id)
        )
        yield io.done
        self.writes_buffered += 1
        return "buffer"
    targets = self.metadata.stripe_disks(file_id)
    stripe = self.metadata.stripe_size_bytes(file_id)
    for target in targets:
        self.power.note_arrival(target)
    ios = [
        self.data_disks[target].submit(
            stripe, kind=RequestKind.WRITE, tag=("write", file_id)
        )
        for target in targets
    ]
    yield self.sim.all_of([io.done for io in ios])
    self.writes_direct += 1
    for target in targets:
        self.power.evaluate(target)
    return f"data{targets[0]}"


# -- the paced replayer ------------------------------------------------------------------


def _oracle_replay_paced(self, trace, epoch_s):
    # ``_waiters`` holds settlement callbacks now: the one change to the
    # parent's body is storing ``done.succeed`` instead of ``done``.
    slots = Resource(self.sim, capacity=self.max_outstanding)
    for request in trace.requests:
        target = epoch_s + request.time_s
        if target > self.sim.now:
            yield self.sim.timeout(target - self.sim.now)
        slot = slots.request()
        yield slot
        request_id = next_request_id()
        done = self.sim.event()
        self._waiters[request_id] = done.succeed
        self._issue(request_id, request.file_id, request.op)
        # Release the pacing slot straight from the completion event's
        # callback -- no watcher process needed.
        assert done.callbacks is not None
        done.callbacks.append(
            lambda _e, slots=slots, slot=slot: slots.release(slot)
        )
    self._replay_finished = True
    if self._pending:
        yield self._drained
    return self.response_times


_flat_replay = ClientDriver.replay


def _oracle_replay(self, trace, epoch_s=0.0, mode="open"):
    """``replay``, with the paced replayer started as the parent started it."""
    if mode == "paced":
        return self.sim.process(_oracle_replay_paced(self, trace, epoch_s))
    return _flat_replay(self, trace, epoch_s, mode)


# -- transitions and the time-based waker ----------------------------------------------


def _oracle_finish_transition(self, target, duration):
    done = self._transition_done
    yield self.sim.timeout(duration)
    if done._value is not PENDING:
        # fail() cut the transition short and closed its span; a
        # repair (and a later transition) may have followed.
        return
    self._set_state(target)
    self._end_transition_span()
    done.succeed()
    # A request may have landed while we were spinning down; chain the
    # wake-up immediately so it is not stranded until the next submit.
    if target is DiskState.STANDBY and self.inflight > 0:
        self.wake()


def _oracle_failed_spinup(self, duration):
    """An injected spin-up failure: the motor spends the full spin-up
    (time and energy) but falls back to STANDBY, observes the injected
    back-off, then releases waiters so the next attempt retries."""
    self._set_state(DiskState.SPIN_UP)
    tracer = self.sim.tracer
    if tracer is not None:
        self._transition_span = tracer.begin(
            "spinup", self.name, injected_failure=True
        )
    self._transition_done = self.sim.event()
    done = self._transition_done
    yield self.sim.timeout(duration)
    if done._value is not PENDING:
        # fail() cut the attempt short and closed its span; a
        # repair (and a later transition) may have followed.
        return
    self._set_state(DiskState.STANDBY)
    self._end_transition_span(ok=False)
    if self._flaky_backoff_s > 0:
        yield self.sim.timeout(self._flaky_backoff_s)
    if done.triggered:
        return  # the device failed during the back-off
    done.succeed()
    if self.inflight > 0 and self.state is DiskState.STANDBY:
        self.wake()


def _oracle_waker(self, disk_index, wake_at):
    """The power manager's time-based waker closure, over its free names."""
    disk = self.disks[disk_index]
    yield self.sim.timeout(wake_at - self.sim.now)
    if self._wake_seq[disk_index] == -1:
        self._wake_seq[disk_index] = None
        disk.wake()


# -- the idle watchdogs, and the interrupt that retired their timers --------------------


class Interrupt(Exception):
    """Thrown into a watchdog oracle when activity retires its timer."""


def _oracle_disk_watchdog(self):
    """Built-in idle timer (policy fallback without application hints)."""
    sim = self.sim
    while True:
        # Re-read each idle period: set_idle_threshold may retune the
        # timer mid-run (the online controller's knob).
        auto_sleep_after = self.auto_sleep_after
        assert auto_sleep_after is not None  # watchdog only started when set
        if self.state is DiskState.IDLE and self.inflight == 0:
            self._watchdog_timing = True
            try:
                yield sim.timeout(auto_sleep_after)
                if self.idle_action == "low_speed":
                    self.shift_down()
                else:
                    self.request_sleep()
            except Interrupt:
                pass  # activity arrived; wait for the next idle period
            finally:
                self._watchdog_timing = False
        elif (
            self.second_stage_after is not None
            and self.state is DiskState.LOW_IDLE
            and self.inflight == 0
        ):
            self._watchdog_timing = True
            try:
                yield sim.timeout(self.second_stage_after)
                self.request_sleep()
            except Interrupt:
                pass
            finally:
                self._watchdog_timing = False
        elif self.state.is_transitioning and self.second_stage_after is not None:
            # Re-check once the shift/spin completes (two-stage mode
            # must arm its LOW_IDLE timer without waiting for I/O).
            try:
                yield self._transition_done
            except DiskFailureError:
                return
        else:
            yield self._idle_started


def _oracle_ssd_watchdog(self):
    """Built-in DEVSLP idle timer (armed via ``auto_sleep_after``)."""
    sim = self.sim
    while True:
        auto_sleep_after = self.auto_sleep_after
        assert auto_sleep_after is not None  # watchdog only started when set
        if (
            self.state is DiskState.IDLE
            and self.inflight == 0
            and self._busy == 0
            and not self._dirty
        ):
            self._watchdog_timing = True
            try:
                yield sim.timeout(auto_sleep_after)
                self.request_sleep()
            except Interrupt:
                pass  # activity arrived; wait for the next idle period
            finally:
                self._watchdog_timing = False
        else:
            yield self._idle_started


#: Device -> its watchdog oracle's process, while the oracles are patched in.
_WATCHDOGS: Dict[StorageBackend, Process] = {}


def _watched(self, watchdog):
    """Run a watchdog oracle; once it ends, ``repair()`` starts another."""
    yield from watchdog(self)
    self._watching = False


def _watchdog_kickoff(watchdog):
    def start(self, _value=None):
        _WATCHDOGS[self] = _process_in_this_slot(self.sim, _watched(self, watchdog))

    return start


def _oracle_interrupt(self):
    """``Process.interrupt("activity")`` on the device's watchdog oracle."""
    process = _WATCHDOGS[self]
    interruption = Event(self.sim)
    interruption._ok = False
    interruption._exc = Interrupt("activity")
    interruption._value = interruption._exc
    interruption._defused = True  # delivered via throw(), never unhandled
    interruption.callbacks.append(lambda event: _deliver_interrupt(process, event))
    self.sim.schedule(interruption, delay=0.0, priority=URGENT)


def _deliver_interrupt(process, interruption):
    if process._value is not PENDING:
        return  # process already finished before delivery
    # Detach from the event we were waiting on, then resume with the
    # failed interruption event so Interrupt is thrown into the
    # generator.
    if process._target is not None and process._target.callbacks is not None:
        try:
            process._target.callbacks.remove(process._resume)
        except ValueError:  # pragma: no cover - defensive
            pass
    process._resume(interruption)


def _process_in_this_slot(sim, generator):
    """Run *generator* as a process whose kick-off is the slot running
    now.  The kick-off callback this replaces already sits in the slot
    the process's kick-off event would take, so the process is built
    without scheduling another one."""
    process = Process.__new__(Process)
    process.sim = sim
    process.callbacks = []
    process._value = PENDING
    process._exc = None
    process._ok = True
    process._defused = False
    process._generator = generator
    process.name = generator.__name__
    process._target = None
    kickoff = Event(sim)
    kickoff._value = None
    process._resume(kickoff)
    return process


def _kickoff(oracle):
    """A kick-off callback that starts *oracle* in its own slot."""

    def start(self: Any, _value: Any = None) -> None:
        _process_in_this_slot(self.sim, oracle(self))

    return start


def _channel_kickoff(self, channel):
    _process_in_this_slot(self.sim, _oracle_channel(self, channel))


def _serve_kickoff(serve, _value):
    node = serve.node
    _process_in_this_slot(node.sim, _oracle_node_serve(node, serve.forwarded))


def _transition_kickoff(self, plan):
    _process_in_this_slot(self.sim, _oracle_finish_transition(self, *plan))


def _failed_spinup_kickoff(self, duration):
    _process_in_this_slot(self.sim, _oracle_failed_spinup(self, duration))


def _waker_kickoff(self, plan):
    _process_in_this_slot(self.sim, _oracle_waker(self, *plan))


@contextlib.contextmanager
def _paths(loops=False, delivery=False):
    """Patch in the loop oracles and/or the delivery oracle while active."""
    with pytest.MonkeyPatch.context() as patch:
        if loops:
            patch.setattr(Link, "acquire", _oracle_acquire)
            patch.setattr(Link, "release", _oracle_release)
            patch.setattr(SimDisk, "_await_request", _kickoff(_oracle_disk_server))
            patch.setattr(SSDBackend, "_await_request", _kickoff(_oracle_ssd_server))
            patch.setattr(SSDBackend, "_destage_next", _kickoff(_oracle_ssd_destager))
            patch.setattr(SSDBackend, "_await_job", _channel_kickoff)
            patch.setattr(StorageServer, "_await_message", _kickoff(_oracle_server_main))
            patch.setattr(StorageNode, "_await_message", _kickoff(_oracle_node_main))
            patch.setattr(ClientDriver, "_await_message", _kickoff(_oracle_client_dispatch))
            patch.setattr(MetadataServer, "_await_message", _kickoff(_oracle_meta_main))
            patch.setattr(_Serve, "_start", _serve_kickoff)
            patch.setattr(ClientDriver, "replay", _oracle_replay)
            patch.setattr(StorageBackend, "_time_transition", _transition_kickoff)
            patch.setattr(StorageBackend, "_failed_spinup", _failed_spinup_kickoff)
            patch.setattr(PowerManager, "_time_wake", _waker_kickoff)
            patch.setattr(SimDisk, "_watch", _watchdog_kickoff(_oracle_disk_watchdog))
            patch.setattr(SSDBackend, "_watch", _watchdog_kickoff(_oracle_ssd_watchdog))
            patch.setattr(StorageBackend, "_interrupt_watchdog", _oracle_interrupt)
        if delivery:
            patch.setattr(Fabric, "send", _oracle_send)
            patch.setattr(Fabric, "send_nowait", _oracle_send_nowait)
        try:
            yield
        finally:
            _WIRES.clear()
            _WATCHDOGS.clear()


def _record(result):
    """The run's whole record as canonical JSON: equal strings mean every
    measured value is bit-identical."""
    return canonical_json(result.record())


def _trace(write_fraction=0.2):
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=150, write_fraction=write_fraction)
    )


def _run(config, oracle=False, seed=7):
    trace = _trace()
    with _paths(delivery=oracle):
        return run_eevfs(trace, config, seed=seed)


def _digest(config, oracle=False, seed=7):
    """EventStreamHasher digest of a whole cluster run on one path."""
    trace = _trace()
    with _paths(delivery=oracle):
        cluster = EEVFSCluster(config=config, seed=seed)
        hasher = EventStreamHasher().attach(cluster.sim)
        cluster.run(trace)
    return hasher.hexdigest(), hasher.events_hashed


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_generator_and_continuation_paths_are_byte_identical(config):
    old = _run(config, oracle=True)
    new = _run(config)
    assert _record(old) == _record(new)


@pytest.mark.parametrize("config", CONFIGS, ids=[f"cont-{name}" for name in CONFIG_IDS])
def test_event_stream_digest_is_deterministic_per_mode(config):
    # A same-seed run on the product path is digest-reproducible down
    # to the event stream.
    assert _digest(config) == _digest(config)


def test_dispatch_modes_produce_different_streams_but_identical_metrics():
    # The delivery oracle schedules a process completion per message, so
    # its typed event stream differs (same metrics, asserted above),
    # which also proves the oracle patch took effect.
    config = EEVFSConfig()
    assert _digest(config, oracle=True)[0] != _digest(config)[0]


# -- the rebuilt loops: same schedule, event for event -----------------------------------

#: name -> () -> (trace, config, faults, seed)
SCENARIOS = {
    **{
        name: (lambda config=config: (_trace(), dict(config=config)))
        for name, config in zip(CONFIG_IDS, CONFIGS, strict=True)
    },
    "ssd-writes": lambda: (
        _trace(write_fraction=0.4),
        dict(
            config=EEVFSConfig(
                buffer_backend="ssd", ssd_capacity_mb=32, ssd_buffer_idle_s=2.0
            )
        ),
    ),
    "metaplane:leader-crash": lambda: _race("metaplane:leader-crash"),
    "ssd:buffer-faults": lambda: _race("ssd:buffer-faults"),
    # Writes straight to the data disks, one of which dies.
    "write-through": lambda: (
        _trace(write_fraction=0.4),
        dict(
            config=EEVFSConfig(write_buffering=False),
            faults=FaultSchedule().disk_fail("node1/data0", at=3),
        ),
    ),
    # Replicated writes and reads over a dead data disk and a dead
    # buffer disk: the serve chain's silent and failover branches.
    "replication": lambda: (
        _trace(write_fraction=0.4),
        dict(
            config=EEVFSConfig(replication_factor=2, replicate_writes=True),
            faults=(
                FaultSchedule()
                .disk_fail("node1/data0", at=3)
                .disk_fail("node2/buffer", at=6)
            ),
        ),
    ),
    # Injected spin-up failures, with and without a back-off.
    "flaky-spinups": lambda: (
        _trace(),
        dict(
            config=EEVFSConfig(),
            faults=(
                FaultSchedule()
                .flaky_spinups("node1/data0", at=2, count=2, backoff_s=0.5)
                .flaky_spinups("node2/data1", at=2, count=2, backoff_s=0.0)
            ),
        ),
    ),
    # Two-stage DRPM drives (the watchdog waits out its shifts) under
    # the time predictor's wake-ahead timers.
    "drpm:time": lambda: (
        _trace(),
        dict(
            cluster=drpm_cluster(),
            config=EEVFSConfig(window_predictor="time"),
            node_class=TwoStageDRPMNode,
        ),
    ),
}


def _race(name):
    # The race suite's scenario, rebuilt per run so no fault state
    # carries over from one run to the next.
    scenario = next(s for s in default_scenarios() if s.name == name)
    return scenario.trace, dict(config=scenario.config, faults=scenario.faults)


def _observed_run(scenario, loops, obs=False):
    trace, build = SCENARIOS[scenario]()
    with _paths(loops=loops):
        cluster = EEVFSCluster(seed=7, obs=obs, **build)
        shape = ScheduleShapeHasher().attach(cluster.sim)
        typed = EventStreamHasher().attach(cluster.sim)
        result = cluster.run(trace)
    return result, cluster.sim.events_processed, shape.hexdigest(), typed.hexdigest()


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_loop_oracles_keep_every_event_in_its_slot(scenario):
    old, old_events, old_shape, old_typed = _observed_run(scenario, loops=True)
    new, new_events, new_shape, new_typed = _observed_run(scenario, loops=False)
    assert _record(old) == _record(new)
    assert old_events == new_events
    assert old_shape == new_shape
    # Same slots, different carriers: the oracle patch took effect.
    assert old_typed != new_typed


@pytest.mark.parametrize(
    "scenario", ["prefetch", "ssd:buffer-faults", "replication", "drpm:time"]
)
def test_loop_oracles_export_the_same_spans(scenario):
    old = _observed_run(scenario, loops=True, obs=True)[0]
    new = _observed_run(scenario, loops=False, obs=True)[0]
    old_spans = [repr(span.as_dict()) for span in old.trace.spans]
    new_spans = [repr(span.as_dict()) for span in new.trace.spans]
    assert len(new_spans) > 100
    assert old_spans == new_spans


def test_the_serve_chain_walks_every_failure_branch():
    walked = set()

    def branch_spy(original):
        def spy(self, event):
            forwarded = self.forwarded
            if forwarded.silent:
                walked.add("silent")
            else:
                walked.add("failover" if forwarded.failover else "failed reply")
            return original(self, event)

        return spy

    def stage_spy(name, original):
        def spy(self, event):
            if not event._ok:
                walked.add(name)
            return original(self, event)

        return spy

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Serve, "_failed", branch_spy(_Serve._failed))
        for stage in ("_staged", "_written", "_read"):
            patch.setattr(_Serve, stage, stage_spy(stage, getattr(_Serve, stage)))
        for scenario in ("write-through", "replication"):
            _observed_run(scenario, loops=False)
    assert walked == {
        "silent",
        "failover",
        "failed reply",
        "_staged",
        "_written",
        "_read",
    }


#: A stage of each rebuilt path that only the flat version runs: every
#: one of them is reached on the product path and none under the oracles.
FLAT_STAGES = [
    (_Serve, "_enter"),
    (_PacedReplay, "_pace"),
    (StorageBackend, "_finish_transition"),
    (StorageBackend, "_failed_spinup_spent"),
    (PowerManager, "_wake_due"),
    (StorageBackend, "_watch_expired"),
    (StorageBackend, "_watch_interrupted"),
]


@pytest.mark.parametrize("loops", [False, True], ids=["cont", "gen"])
def test_each_oracle_replaces_its_flat_path(loops):
    ran = set()

    def spy(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args):
            ran.add(f"{cls.__name__}.{name}")
            return original(self, *args)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for cls, name in FLAT_STAGES:
            patch.setattr(cls, name, spy(cls, name))
        for scenario in ("ssd-writes", "flaky-spinups", "drpm:time"):
            _observed_run(scenario, loops)
    flat = {f"{cls.__name__}.{name}" for cls, name in FLAT_STAGES}
    assert ran == (set() if loops else flat)


def test_replay_builds_no_process():
    trace = generate_synthetic_trace(SyntheticWorkload(n_requests=1500))
    built = []
    replaying = []
    build = Process.__init__
    replay = ClientDriver.replay

    def counted(self, sim, generator, name=""):
        if replaying:
            built.append(generator.__qualname__)
        build(self, sim, generator, name)

    def started(self, *args, **kwargs):
        replaying.append(True)
        return replay(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "__init__", counted)
        patch.setattr(ClientDriver, "replay", started)
        EEVFSCluster(config=EEVFSConfig(), seed=1).run(trace)
    assert replaying
    assert built == []


# -- device faults mid-flight: the ``_defused`` paths ---------------------------------

MB = 1 << 20

#: Failure instants that land, between them, on every reachable failure
#: path: a DEVSLP exit failing under a waiting request (3.503), a write
#: failing on the host interface (3.527), a spin-up failing under a
#: waiting HDD request while a flash read's channel jobs fail (3.539),
#: and a destage whose program jobs fail (3.548).
FAIL_AT = [3.503, 3.527, 3.539, 3.548]


def _device_drill(fail_at, loops):
    """An HDD and an SSD under a write-heavy burst; both fail at
    *fail_at*, are repaired 3 s later and then get flaky spin-ups."""
    with _paths(loops=loops):
        sim = Simulator()
        shape = ScheduleShapeHasher().attach(sim)
        hdd = SimDisk(sim, ATA_80GB_TYPE1, name="hdd", auto_sleep_after=1.0)
        ssd = SSDBackend(
            sim,
            SATA_SSD_8GB.with_overrides(write_cache_bytes=6 * MB),
            name="ssd",
            auto_sleep_after=0.05,
        )
        outcomes = []

        def watch(name, index, request):
            def settle(event):
                if not event._ok:
                    event.defuse()
                outcomes.append((name, index, repr(sim.now), event._ok))

            request.done.callbacks.append(settle)

        def client():
            for index in range(60):
                kind = RequestKind.WRITE if index % 3 else RequestKind.READ
                watch("ssd", index, ssd.submit(2 * MB, kind=kind, tag=("io", index % 7)))
                if index % 10 == 0:
                    watch("hdd", index, hdd.submit(4 * MB))
                yield sim.timeout(0.004 if index % 20 else 3.5)

        def faults():
            yield sim.timeout(fail_at)
            hdd.fail()
            ssd.fail()
            yield sim.timeout(3.0)
            hdd.repair()
            ssd.repair()
            hdd.inject_spinup_failures(2, backoff_s=0.2)
            ssd.inject_spinup_failures(1, backoff_s=0.01)

        sim.process(client())
        sim.process(faults())
        sim.run(until=40.0)
    return outcomes, sim.events_processed, shape.hexdigest()


@pytest.mark.parametrize("fail_at", FAIL_AT)
def test_device_failures_keep_every_event_in_its_slot(fail_at):
    old = _device_drill(fail_at, loops=True)
    new = _device_drill(fail_at, loops=False)
    assert any(not ok for *_, ok in new[0])
    assert old == new


def test_device_drill_walks_the_failure_paths():
    walked = set()

    def spy(cls, name, failed):
        original = getattr(cls, name)

        def wrapper(self, arg):
            if failed(arg):
                walked.add(f"{cls.__name__}.{name}")
            return original(self, arg)

        return wrapper

    paths = [
        (SimDisk, "_serve", lambda event: not event._ok),
        (SimDisk, "_fail_held", lambda failure: True),
        (SSDBackend, "_serve", lambda event: not event._ok),
        (SSDBackend, "_finish", lambda failure: failure is not None),
        (SSDBackend, "_flash_read", lambda event: not event._ok),
        (SSDBackend, "_destaged", lambda event: not event._ok),
    ]
    with pytest.MonkeyPatch.context() as patch:
        for cls, name, failed in paths:
            patch.setattr(cls, name, spy(cls, name, failed))
        for fail_at in FAIL_AT:
            _device_drill(fail_at, loops=False)
    assert walked == {f"{cls.__name__}.{name}" for cls, name, _ in paths}
