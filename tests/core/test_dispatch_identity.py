"""Flat callbacks vs the generators they replaced, on full cluster runs.

The hot path runs on flat callbacks: the fabric's :class:`_Delivery`
continuation, :class:`Link` grants through ``call_soon``, the disk and
SSD servers, the SSD destager and channels, and the inbox handlers of
the storage server, storage node, client and metadata server.  Each one
replaced generator or grant machinery, and the replacement must be
*invisible*.  The generators live on here as test-only oracles, each the
parent's method body verbatim as a function of ``self``, patched onto
the kick-off callback of the flat version, which the constructor
schedules in the slot the parent's process kick-off took (for delivery,
onto ``Fabric.send``/``send_nowait``).  Ids call the oracle
path ``gen`` and the product path ``cont``.

Two levels of identity are pinned:

* **The loops keep every event in its schedule slot.**  With every loop
  oracle and the ``Resource``-based link grant patched in, a run
  dispatches the same number of events, with the same schedule-shape
  digest (time, sequence counter and outcome per event), and ends with
  a bit-identical :meth:`~repro.core.filesystem.RunResult.record`.  The race scenario ``ssd:buffer-faults`` adds
  device faults to whole runs; a device drill fails an HDD and an SSD
  mid-transition, mid-write, mid-read and mid-destage, which walks the
  servers' and destager's ``_defused`` paths.
* **Delivery is metric-identical.**  One generator process per message
  adds a completion event that a fire-and-forget send never schedules,
  so only the record can match (compared as canonical JSON, whose
  floats round-trip: equality here is bit equality).
"""

import contextlib
from typing import Any, Dict

import pytest

from repro.backend import SATA_SSD_8GB
from repro.backend.ssd import _CacheEntry, SSDBackend
from repro.core import EEVFSConfig, run_eevfs
from repro.core.client import ClientDriver, NOT_LEADER
from repro.core.filesystem import canonical_json, EEVFSCluster
from repro.core.node import StorageNode
from repro.core.protocol import (
    AccessHints,
    CreateFile,
    FileData,
    FileRequest,
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
)
from repro.disk.states import DiskState
from repro.metaplane.messages import AppendEntries, AppendReply, VoteReply, VoteRequest
from repro.metaplane.server import LEADER, MetadataServer
from repro.net.fabric import Fabric
from repro.net.link import Link
from repro.net.message import Message
from repro.sim import Simulator
from repro.sim.events import Event, PENDING
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
            self.sim.process(self._serve(payload))
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
                waiter.succeed()
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


def _kickoff(oracle):
    """A kick-off callback that starts *oracle* in its own slot."""

    def start(self: Any, _value: Any = None) -> None:
        _process_in_this_slot(self.sim, oracle(self))

    return start


def _channel_kickoff(self, channel):
    _process_in_this_slot(self.sim, _oracle_channel(self, channel))


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
        if delivery:
            patch.setattr(Fabric, "send", _oracle_send)
            patch.setattr(Fabric, "send_nowait", _oracle_send_nowait)
        try:
            yield
        finally:
            _WIRES.clear()


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
        name: (lambda config=config: (_trace(), config, None, 7))
        for name, config in zip(CONFIG_IDS, CONFIGS, strict=True)
    },
    "ssd-writes": lambda: (
        _trace(write_fraction=0.4),
        EEVFSConfig(buffer_backend="ssd", ssd_capacity_mb=32, ssd_buffer_idle_s=2.0),
        None,
        7,
    ),
    "metaplane:leader-crash": lambda: _race("metaplane:leader-crash"),
    "ssd:buffer-faults": lambda: _race("ssd:buffer-faults"),
}


def _race(name):
    # The race suite's scenario at its seed, rebuilt per run so no fault
    # state carries over from one run to the next.
    scenario = next(s for s in default_scenarios() if s.name == name)
    return scenario.trace, scenario.config, scenario.faults, 7


def _observed_run(scenario, loops, obs=False):
    trace, config, faults, seed = SCENARIOS[scenario]()
    with _paths(loops=loops):
        cluster = EEVFSCluster(config=config, seed=seed, faults=faults, obs=obs)
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


@pytest.mark.parametrize("scenario", ["prefetch", "ssd:buffer-faults"])
def test_loop_oracles_export_the_same_spans(scenario):
    old = _observed_run(scenario, loops=True, obs=True)[0]
    new = _observed_run(scenario, loops=False, obs=True)[0]
    old_spans = [repr(span.as_dict()) for span in old.trace.spans]
    new_spans = [repr(span.as_dict()) for span in new.trace.spans]
    assert len(new_spans) > 100
    assert old_spans == new_spans


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
