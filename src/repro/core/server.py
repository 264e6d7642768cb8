"""The storage server (§III-A, §IV-A).

The server is deliberately thin -- "the storage server only has to manage
metadata such as data location and file size" -- and acts "primarily ...
as a load balancer and access point for all of the storage nodes".  It:

1. connects to every storage node (Fig. 2 step 1),
2. derives file popularity from the access log (step 2),
3. places files on nodes round-robin by popularity and instructs
   prefetching (step 3),
4. forwards application hints (step 4),
5. forwards client requests to the owning node (step 5); data flows
   node -> client directly (step 6), never through the server.

When a run replans its buffers (online mode, or ``popularity_window_s``)
the server also feeds every routed request to the replan loop's
popularity source; the loop itself (:class:`~repro.online.replan.ReplanLoop`)
runs beside the server, which starts no periodic loop of its own.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.core.config import EEVFSConfig, SERVER_OVERHEAD_S
from repro.core.metadata import ServerMetadata
from repro.core.placement import (
    concentrate_disk_assignment,
    creation_order,
    place_concentrate,
    place_round_robin,
    place_weighted,
)
from repro.core.popularity import PopularitySource, ranked
from repro.core.prefetch import plan_prefetch, PrefetchPlan
from repro.core.protocol import (
    AccessHints,
    CreateFile,
    FileRequest,
    ForwardedRequest,
    PrefetchCommand,
    PrefetchComplete,
    RepairComplete,
    RequestFailed,
)
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.replication.policy import plan_replicas
from repro.replication.repair import ReplicationManager
from repro.sim.engine import Simulator
from repro.sim.events import AllOf, Event, URGENT
from repro.traces.model import RequestOp, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Span

SERVER_NAME = "server"


class StorageServer:
    """The metadata/placement/forwarding hub of the cluster."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        node_names: List[str],
        config: EEVFSConfig,
        nic_bps: float,
        node_disk_counts: Optional[Dict[str, int]] = None,
        node_weights: Optional[Dict[str, float]] = None,
        replan_source: Optional[PopularitySource] = None,
    ) -> None:
        if not node_names:
            raise ValueError("server needs at least one storage node")
        if config.replication_factor > len(node_names):
            raise ValueError(
                f"replication_factor {config.replication_factor} exceeds "
                f"node count {len(node_names)}"
            )
        self.sim = sim
        self.fabric = fabric
        self.name = SERVER_NAME
        self.node_names = list(node_names)
        self.config = config
        #: Data-disk count per node -- only consulted by centralised
        #: placement policies (PDC); EEVFS proper never uses it (§IV-D).
        self.node_disk_counts = dict(node_disk_counts or {})
        #: Relative node capability (NIC rate) for weighted placement.
        self.node_weights = dict(node_weights or {})
        self.endpoint = fabric.add_endpoint(SERVER_NAME, nic_bps)
        if config.online_mode and replan_source is None:
            raise ValueError(
                "online_mode drops the oracle: the server needs an injected "
                "PopularitySource (a repro.online streaming estimator)"
            )
        self.metadata = ServerMetadata()
        #: The replan loop's popularity source, fed from every routed
        #: request: online mode's streaming estimator (which also ranks
        #: setup, cold), or the windowed live log of oracle-mode
        #: replanning.  None when the buffers keep their setup plan.
        self.replan_source = replan_source
        self.placement: Dict[int, str] = {}
        self.prefetch_plan: Optional[PrefetchPlan] = None
        #: Requests with no live holder at forward time (dropped with a
        #: RequestFailed straight back to the client).
        self.requests_unroutable = 0
        #: Silent replica-write copies sent (replication extension).
        self.writes_fanned_out = 0
        #: Background repair loop; created at the end of setup when
        #: replication_factor > 1 and re-replication is enabled.
        self.repairer: Optional[ReplicationManager] = None
        #: Set by the cluster facade when the sharded metadata plane
        #: (repro.metaplane) takes over the request path; repair
        #: completions then propose placement updates to it so the
        #: shards' replicated state machines track re-replication.
        self.metaplane = None
        self._catalog: List[int] = []
        self._prefetch_acks_pending = 0
        self._prefetch_all_acked: Optional[Event] = None
        #: Open ``server.lookup`` span of the request being routed.
        self._lookup: Optional[Span] = None
        # Kicked off URGENT now: the slot a main-loop process would
        # start in.
        self.sim.call_soon(self._await_message, priority=URGENT)

    @property
    def catalog(self) -> List[int]:
        """Every file id placed during setup (the ranking domain)."""
        return list(self._catalog)

    # -- setup (Fig. 2 steps 1-4) ---------------------------------------------------

    def setup(self, trace: Trace, history: Optional[Trace] = None) -> Event:
        """Run initialisation; returns an event that succeeds with the epoch.

        *history* is the trace the popularity log was gathered from; by
        default the replay trace itself, which is what the prototype did
        (§IV-A: "bases the file popularity on information gathered from
        traces").  Passing a different history models stale popularity.

        The epoch is the simulation time at which trace replay may begin
        (all placement, prefetch copies and hints are in place).
        """
        done = Event(self.sim)
        nodes = iter(self.node_names)

        def connect(_value: Any = None) -> None:
            # Step 1: one thread + TCP connection per storage node.
            node = next(nodes, None)
            if node is not None:
                self.fabric.connect(self.name, node, connect)
            else:
                self._place(trace, trace if history is None else history, done)

        self.sim.call_soon(connect, priority=URGENT)
        return done

    def _place(self, trace: Trace, history: Trace, done: Event) -> None:
        """Steps 2 and 3a: rank the files, place them and create them."""
        # Step 2: popularity.  Oracle mode ranks by the historical access
        # counts, once; online mode has no hindsight -- its streaming
        # estimator starts cold, so the initial ranking degenerates to
        # catalog order and everything popularity-shaped is learned
        # during replay.
        size_of = {f.file_id: f.size_bytes for f in trace.files}
        catalog = list(size_of)
        self._catalog = catalog
        if self.config.online_mode:
            source = self.replan_source
            assert source is not None  # checked at init
            ranking = source.ranking(catalog)
        else:
            ranking = ranked(Counter(history.file_ids), catalog)

        # Step 3a: place files on nodes by popularity rank.
        if self.config.placement_policy == "concentrate":
            self.placement = place_concentrate(ranking, self.node_names)
        elif self.config.placement_policy == "bandwidth_weighted":
            weights = self.node_weights or {n: 1.0 for n in self.node_names}
            self.placement = place_weighted(ranking, self.node_names, weights)
        else:
            self.placement = place_round_robin(ranking, self.node_names)
        per_node_creates = creation_order(ranking, self.placement)
        rank_of = {file_id: rank for rank, file_id in enumerate(ranking)}
        replicas = plan_replicas(
            ranking,
            self.placement,
            self.node_names,
            self.config.replication_factor,
            self.config.replication_policy,
        )
        for file_id in ranking:
            node = self.placement[file_id]
            self.metadata.register(file_id, node, size_of[file_id])
            for holder in replicas.get(file_id, ()):
                self.metadata.add_replica(file_id, holder)
        # Issue creates most-popular-first so each node can round-robin
        # its local disks by popularity (§III-B).
        create_events = []
        for node, files in per_node_creates.items():
            for local_index, file_id in enumerate(files):
                target_disk = None
                if self.config.placement_policy == "concentrate":
                    n_disks = self.node_disk_counts.get(node)
                    if n_disks:
                        target_disk = concentrate_disk_assignment(
                            local_index, len(files), n_disks
                        )
                create_events.append(
                    self.fabric.send(
                        self.name,
                        node,
                        CreateFile(
                            file_id=file_id,
                            size_bytes=size_of[file_id],
                            popularity_rank=rank_of[file_id],
                            target_disk=target_disk,
                        ),
                    )
                )
        # Replica creates ride along, also most-popular-first, so each
        # holder's local round-robin still spreads the hot copies.
        for file_id in ranking:
            for holder in replicas.get(file_id, ()):
                create_events.append(
                    self.fabric.send(
                        self.name,
                        holder,
                        CreateFile(
                            file_id=file_id,
                            size_bytes=size_of[file_id],
                            popularity_rank=rank_of[file_id],
                        ),
                    )
                )
        created = AllOf(self.sim, create_events)
        assert created.callbacks is not None
        created.callbacks.append(lambda _event: self._instruct(ranking, trace, done))

    def _instruct(self, ranking: List[int], trace: Trace, done: Event) -> None:
        """Step 3b: instruct prefetching.

        Online mode starts with cold buffers -- a cold estimator would
        only prefetch catalog-order files -- and lets the replan loop
        populate them once the stream has taught the estimator something.
        """
        if (
            self.config.prefetch_enabled
            and self.config.prefetch_files > 0
            and not self.config.online_mode
        ):
            self.prefetch_plan = plan_prefetch(
                ranking, self.config.prefetch_files, self.placement
            )
            commands = [
                (node, files)
                for node in self.node_names
                if (files := self.prefetch_plan.files_for(node))
            ]
            self._prefetch_acks_pending = len(commands)
            self._prefetch_all_acked = Event(self.sim)
            self._command(iter(commands), trace, done)
        else:
            self._hint(trace, done)

    def _command(
        self, commands: Iterator[Tuple[str, Tuple[int, ...]]], trace: Trace, done: Event
    ) -> None:
        """Send the prefetch commands one delivery at a time, then wait
        for every node's ack."""
        command = next(commands, None)
        if command is not None:
            node, files = command
            sent = self.fabric.send(
                self.name, node, PrefetchCommand(file_ids=tuple(files))
            )
            assert sent.callbacks is not None
            sent.callbacks.append(lambda _event: self._command(commands, trace, done))
        elif self._prefetch_acks_pending:
            acked = self._prefetch_all_acked
            assert acked is not None and acked.callbacks is not None
            acked.callbacks.append(lambda _event: self._hint(trace, done))
        else:
            self._hint(trace, done)

    def _hint(self, trace: Trace, done: Event) -> None:
        """Step 4: application hints -- per node, the future arrival
        times of every file it hosts.

        Sent regardless of PF/NPF mode (nodes decide whether to act on
        them, config.use_hints) -- but *not* in online mode, whose whole
        premise is that the future trace is unknown; nodes then
        power-manage on idle timers alone.
        """
        if self.config.online_mode:
            self._ready(done)
            return
        epoch = self.sim.now
        arrivals: Dict[str, Dict[int, List[float]]] = defaultdict(dict)
        placement = self.placement
        for time_s, file_id in zip(trace.times, trace.file_ids):
            arrivals[placement[file_id]].setdefault(file_id, []).append(time_s)
        hint_events = []
        for node in self.node_names:
            payload = AccessHints(
                arrivals={fid: tuple(times) for fid, times in arrivals[node].items()},
                epoch_s=epoch,
            )
            hint_events.append(self.fabric.send(self.name, node, payload))
        hinted = AllOf(self.sim, hint_events)
        assert hinted.callbacks is not None
        hinted.callbacks.append(lambda _event: self._ready(done))

    def _ready(self, done: Event) -> None:
        """Setup is over: start re-replication and release the workload."""
        # Started only now: during setup every file is transiently
        # "under-replicated" and the repair loop must not chase ghosts.
        if self.config.replication_factor > 1:
            self.repairer = ReplicationManager(self)
        done.succeed(self.sim.now)

    # -- request plane (steps 5-6) -----------------------------------------------------

    def _await_message(self, _value: Any = None) -> None:
        """Kick-off: park :meth:`_on_message` on the inbox."""
        self.endpoint.inbox.take(self._on_message)

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, FileRequest):
            # Lookup + forward; per-request CPU overhead serialises
            # here, which is exactly the server-bottleneck concern
            # §III-A raises (and simplifying the server mitigates).
            tracer = self.sim.tracer
            if tracer is not None:
                self._lookup = tracer.begin(
                    "server.lookup",
                    self.name,
                    parent=tracer.request_span(payload.request_id),
                    file_id=payload.file_id,
                )
            self.sim.call_later(SERVER_OVERHEAD_S, self._route, payload)
            return
        if isinstance(payload, PrefetchComplete):
            self._prefetch_acks_pending -= 1
            if self._prefetch_acks_pending == 0 and self._prefetch_all_acked:
                self._prefetch_all_acked.succeed()
        elif isinstance(payload, RepairComplete):
            if self.repairer is not None:
                self.repairer.on_complete(payload)
        else:  # pragma: no cover - defensive
            raise TypeError(f"server cannot handle {payload!r}")
        self.endpoint.inbox.take(self._on_message)

    def _route(self, payload: FileRequest) -> None:
        """Forward *payload* to its first live holder, then take the next
        message."""
        if self.replan_source is not None:
            # §IV's "append-only log of requests": the only popularity
            # signal a replanning run has after setup.
            self.replan_source.record(self.sim.now, payload.file_id)
        lookup, self._lookup = self._lookup, None
        tracer = self.sim.tracer
        holders = self.metadata.live_holders(payload.file_id)
        if not holders:
            # Every holder is down: fail fast rather than strand the
            # client waiting on a crashed node.
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
            if lookup is not None and tracer is not None:
                tracer.end(lookup, routed=False)
        else:
            primary, backups = holders[0], tuple(holders[1:])
            self.fabric.send_nowait(
                self.name,
                primary,
                ForwardedRequest(payload, backups),  # (request, failover)
            )
            if lookup is not None and tracer is not None:
                tracer.end(lookup, routed=True, node=primary)
            # Replicated writes fan out silently to the other holders so
            # replicas never go stale; only the primary replies.
            if payload.op is RequestOp.WRITE and backups:
                for holder in backups:
                    self.fabric.send_nowait(
                        self.name,
                        holder,
                        ForwardedRequest(request=payload, silent=True),
                    )
                    self.writes_fanned_out += 1
        self.endpoint.inbox.take(self._on_message)
