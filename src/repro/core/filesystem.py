"""The EEVFS facade: build a cluster, run a trace, collect results.

:class:`EEVFSCluster` wires the simulator, fabric, storage server,
storage nodes and a client driver together; :meth:`EEVFSCluster.run`
executes Fig. 2 end to end and returns a :class:`RunResult` with exactly
the paper's three metrics (energy, state transitions, response time)
plus the raw material behind them.

``run_eevfs(trace, config)`` is the one-call entry point most examples
and benchmarks use.  :meth:`RunResult.record` and :func:`canonical_json`
are the one way a run leaves the process as data: every fingerprint,
smoke golden and JSON export goes through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
import json
from typing import Any, Dict, List, Optional

from repro.backend.ssd import SSDBackend
from repro.core.client import ClientDriver, RetryPolicy
from repro.core.config import ClusterSpec, default_cluster, EEVFSConfig
from repro.core.node import StorageNode
from repro.core.popularity import PopularitySource, WindowEstimator
from repro.core.server import StorageServer
from repro.disk.states import DiskState
from repro.faults.injector import FaultInjector
from repro.faults.log import FaultLog
from repro.faults.schedule import FaultSchedule
from repro.metaplane.plane import MetaPlane, MetaPlaneStats
from repro.net.fabric import Fabric
from repro.obs.runtime import Observability, maybe_snapshot
from repro.obs.tracer import RunTrace
from repro.online.controller import OnlineController, OnlineStats
from repro.online.estimators import build_estimator
from repro.online.replan import ReplanLoop
from repro.sim.engine import Simulator
from repro.sim.monitor import TallyStat
from repro.sim.rng import RandomStreams
from repro.traces.model import Trace

#: Simulated seconds past the epoch after which a finished replay is an
#: error: a guard rail against a run that never drains.
RUN_TIMEOUT_S = 1e7

#: Stable numeric code per disk power state, for the per-disk state
#: occupancy series (CSV export needs numbers, not enum names).
DISK_STATE_CODES = {state: code for code, state in enumerate(DiskState)}


def canonical_json(data: object) -> str:
    """The one serialisation of run data: sorted keys, ``indent=1`` and a
    trailing newline.

    Floats print through ``repr``, which round-trips, so two strings are
    equal exactly when every value is bit-identical.  Compare the
    strings, not the parsed data: an empty tally's statistics are NaN,
    which never equals itself.
    """
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _plain(value: object) -> Any:
    """*value* as JSON-ready data: dataclasses field by field, tallies
    through :meth:`~repro.sim.monitor.TallyStat.as_dict`, the fault log
    as its records."""
    if isinstance(value, TallyStat):
        return value.as_dict()
    if isinstance(value, FaultLog):
        value = value.records
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


@dataclass
class DiskReport:
    """Per-disk measurement over the run's measurement window."""

    name: str
    energy_j: float
    transitions: int
    spinups: int
    spindowns: int
    requests_served: int
    time_in_state_s: Dict[str, float]


@dataclass
class NodeReport:
    """Per-storage-node energy/activity over the measurement window."""

    name: str
    base_energy_j: float
    disk_energy_j: float
    transitions: int
    buffer_hits: int
    data_disk_hits: int
    writes_buffered: int
    writes_direct: int
    writes_destaged: int
    disks: List[DiskReport] = field(default_factory=list)

    @property
    def total_energy_j(self) -> float:
        return self.base_energy_j + self.disk_energy_j


@dataclass
class RunResult:
    """Everything measured from one EEVFS run.

    ``energy_j`` covers the *measurement window* -- trace start (epoch) to
    completion, matching the paper's methodology of metering the storage
    nodes while "running the experiments".  ``energy_with_setup_j``
    additionally charges the setup phase (placement + prefetch copies),
    i.e. the prefetch investment PF makes before the window opens.
    """

    config: EEVFSConfig
    #: Simulation time when trace replay began / ended.
    epoch_s: float
    end_s: float
    #: Storage-node energy over [epoch, end] (+ server if configured).
    energy_j: float
    #: Storage-node energy over [0, end].
    energy_with_setup_j: float
    transitions: int
    response_times: TallyStat
    nodes: List[NodeReport]
    buffer_hits: int
    data_disk_hits: int
    writes_buffered: int
    writes_direct: int
    writes_destaged: int
    prefetch_files_copied: int
    prefetch_bytes_copied: int
    server_energy_j: float
    #: Requests answered with RequestFailed (disk failures injected).
    requests_failed: int = 0
    #: Mean response-time decomposition over successful reads
    #: (disk_s / node_other_s / network_server_s TallyStats).
    latency_components: Dict[str, TallyStat] = field(default_factory=dict)
    # -- availability / durability (repro.faults, repro.replication) -------------
    #: Requests handed to another holder after a failed attempt.
    requests_failed_over: int = 0
    #: Requests the server dropped for want of any live holder.
    requests_unroutable: int = 0
    #: Silent replica-write copies the server fanned out.
    writes_fanned_out: int = 0
    #: Background repairs completed / bytes recopied during the run.
    repairs_completed: int = 0
    repair_bytes_copied: int = 0
    #: Files still below the configured replication factor at run end.
    under_replicated_files: int = 0
    #: Fault events the injector applied (0 = fault-free run).
    fault_events: int = 0
    #: The injector's event log (None when no schedule was given).
    fault_log: Optional[FaultLog] = None
    # -- request-retry path (robustness extension) --------------------------------
    #: Attempts re-sent after a failure reply or a per-attempt timeout.
    requests_retried: int = 0
    #: Per-attempt deadlines that expired without any reply.
    request_timeouts: int = 0
    #: Requests that exhausted their retry budget (counted in
    #: ``requests_failed``; never raised as an exception).
    requests_abandoned: int = 0
    #: Replies for already-settled requests (superseded slow attempts).
    duplicate_replies: int = 0
    # -- SSD backend accounting (repro.backend.ssd; all zero on all-HDD runs) -----
    #: Pages the hosts wrote into SSD write caches.
    ssd_host_pages_written: int = 0
    #: NAND pages actually programmed (host destages + GC relocations).
    ssd_nand_pages_written: int = 0
    #: Valid pages garbage collection moved to reclaim blocks.
    ssd_pages_relocated: int = 0
    #: Flash blocks erased across all SSDs.
    ssd_erases: int = 0
    #: Highest per-block erase count seen on any SSD (wear headroom).
    ssd_max_erase_count: int = 0
    #: Cluster-wide write amplification: NAND programs / host pages
    #: (0.0 when nothing was written; < 1 when the cache absorbed
    #: overwrites before they reached flash).
    ssd_write_amplification: float = 0.0
    #: Reads answered from a dirty/destaging write-cache entry.
    ssd_cache_hits: int = 0
    #: Metadata-plane availability metrics (None when the plane is off).
    metaplane: Optional[MetaPlaneStats] = None
    #: Online-mode controller/replan summary (None unless
    #: ``config.online_mode``): the adaptive K and idle-threshold
    #: trajectory, replan counts, and the hit-ratio/K time series.
    online: Optional[OnlineStats] = None
    #: Observability snapshot (spans + telemetry series); None unless the
    #: run was executed with ``obs`` enabled.  Plain data -- safe to
    #: pickle across the repro.parallel process boundary.
    trace: Optional[RunTrace] = None

    @property
    def duration_s(self) -> float:
        """Length of the measurement window."""
        return self.end_s - self.epoch_s

    @property
    def requests_total(self) -> int:
        return self.response_times.count

    @property
    def availability(self) -> float:
        """Fraction of client requests that succeeded (1.0 if none ran)."""
        attempted = self.requests_total + self.requests_failed
        return self.requests_total / attempted if attempted else 1.0

    @property
    def buffer_hit_rate(self) -> float:
        served = self.buffer_hits + self.data_disk_hits
        return self.buffer_hits / served if served else 0.0

    @property
    def mean_response_s(self) -> float:
        return self.response_times.mean

    def record(self) -> Dict[str, Any]:
        """Plain data for everything the run measured.

        Every field except the ``config`` input and the ``trace`` obs
        snapshot, so a traced run records the same as an untraced one.
        Nested stats are rendered field by field, each
        :class:`~repro.sim.monitor.TallyStat` through its ``as_dict()``
        and the fault log as its records.  Three derived values reports
        quote ride along: ``availability``, ``buffer_hit_rate`` and the
        plane's ``max_leaderless_s``.  ``canonical_json(result.record())``
        is the run's fingerprint: the smoke goldens, the race suite's
        same-seed check and the identity tests all compare it.
        """
        record = {
            f.name: _plain(getattr(self, f.name))
            for f in fields(self)
            if f.name not in ("config", "trace")
        }
        record["availability"] = self.availability
        record["buffer_hit_rate"] = self.buffer_hit_rate
        if self.metaplane is not None:
            record["metaplane"]["max_leaderless_s"] = self.metaplane.max_leaderless_s
        return record

    def summary(self) -> Dict[str, object]:
        """Flat dict for tables/JSON."""
        return {
            "prefetch": self.config.prefetch_enabled,
            "energy_j": self.energy_j,
            "transitions": self.transitions,
            "mean_response_s": self.mean_response_s,
            "buffer_hit_rate": self.buffer_hit_rate,
            "duration_s": self.duration_s,
            "requests": self.requests_total,
            "requests_failed": self.requests_failed,
            "availability": self.availability,
        }


class EEVFSCluster:
    """A fully wired EEVFS deployment inside one simulator."""

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        config: Optional[EEVFSConfig] = None,
        seed: int = 0,
        node_class: type = StorageNode,
        faults: Optional[FaultSchedule] = None,
        obs: bool = False,
    ) -> None:
        self.node_class = node_class
        self.cluster = cluster if cluster is not None else default_cluster()
        self.config = config if config is not None else EEVFSConfig()
        self.seed = seed
        self.streams = RandomStreams(seed=seed)
        self.sim = Simulator()
        self.fabric = Fabric(
            self.sim,
            latency_s=self.cluster.fabric_latency_s,
            connect_s=self.cluster.connect_s,
        )
        node_names = [n.name for n in self.cluster.storage_nodes]
        # The replan loop's popularity source, or None when the buffers
        # keep their setup plan: online mode's streaming estimator, or,
        # with ``popularity_window_s``, a window over the live request log.
        source: Optional[PopularitySource] = None
        if self.config.online_mode:
            source = build_estimator(self.config)
        elif self.config.prefetch_enabled and self.config.popularity_window_s is not None:
            source = WindowEstimator(
                self.config.popularity_window_s, clock=lambda: self.sim.now
            )
        self.server = StorageServer(
            self.sim,
            self.fabric,
            node_names=node_names,
            config=self.config,
            nic_bps=self.cluster.server_nic_bps,
            node_disk_counts={
                n.name: n.n_data_disks for n in self.cluster.storage_nodes
            },
            node_weights={
                n.name: n.nic_bps for n in self.cluster.storage_nodes
            },
            replan_source=source,
        )
        self.nodes: List[StorageNode] = [
            node_class(
                self.sim,
                self.fabric,
                spec=node_spec,
                config=self.config,
                server_name=self.server.name,
                spinup_jitter=self.cluster.spinup_jitter,
                rng=self.streams.stream(f"spinup:{node_spec.name}"),
            )
            for node_spec in self.cluster.storage_nodes
        ]
        #: Sharded, consensus-backed metadata plane (repro.metaplane):
        #: takes over the client request path when configured.  The
        #: storage server still performs setup; its metadata snapshot
        #: seeds the shards at the start of :meth:`run`.
        self.metaplane: Optional[MetaPlane] = None
        if self.config.metadata_plane:
            self.metaplane = MetaPlane(
                self.sim,
                self.fabric,
                config=self.config,
                streams=self.streams,
                nic_bps=self.cluster.server_nic_bps,
            )
            self.server.metaplane = self.metaplane
        self.client = ClientDriver(
            self.sim,
            self.fabric,
            nic_bps=self.cluster.client_nic_bps,
            server_name=self.server.name,
            max_outstanding=self.cluster.client_max_outstanding,
            retry=RetryPolicy.from_config(self.config),
            router=(
                None if self.metaplane is None else self.metaplane.router()
            ),
            rng=self.streams.stream("client:retry"),
        )
        #: Online mode's adaptive controller and the drift-gated replan
        #: loop (online mode, or oracle mode with ``popularity_window_s``);
        #: started by :meth:`run` at the trace epoch, like the fault
        #: injector, so control ticks and replan epochs are
        #: workload-relative.
        self.online_controller: Optional[OnlineController] = None
        if self.config.online_mode:
            self.online_controller = OnlineController(
                self.sim, nodes=self.nodes, config=self.config
            )
        self.replanner: Optional[ReplanLoop] = None
        if source is not None:
            self.replanner = ReplanLoop(
                self.sim,
                server=self.server,
                source=source,
                nodes=self.nodes,
                k=self.online_controller or self.config.prefetch_files,
                config=self.config,
            )
        #: Fault injection (repro.faults); started by :meth:`run` at the
        #: trace epoch so schedule times are workload-relative.
        self.injector: Optional[FaultInjector] = None
        if faults is not None:
            self.injector = FaultInjector(
                self.sim, self, faults, streams=self.streams
            )
        #: Observability (repro.obs): attached when ``obs`` is truthy;
        #: otherwise the zero-cost untraced path -- no tracer, no event
        #: hook, no sampler.
        self.observer: Optional[Observability] = None
        if obs:
            self.observer = Observability(self.sim)
            self._register_telemetry()
            self.observer.attach()

    def _register_telemetry(self) -> None:
        """Register the standard gauges against this cluster's state.

        Gauges close over live model objects and are re-read at each
        sample tick; only their sampled series leave the simulator.
        """
        assert self.observer is not None
        telemetry = self.observer.telemetry
        nodes = self.nodes
        all_disks = [disk for node in nodes for disk in node.all_disks]

        def hit_ratio() -> float:
            hits = sum(n.buffer_hits for n in nodes)
            served = hits + sum(n.data_disk_hits for n in nodes)
            return hits / served if served else 0.0

        telemetry.gauge("buffer_hit_ratio", hit_ratio)
        telemetry.gauge(
            "client.outstanding", lambda: float(self.client.outstanding)
        )
        telemetry.gauge(
            "disk.queue_depth",
            lambda: float(sum(d.inflight for d in all_disks)),
        )
        telemetry.gauge(
            "disk.spinups_total",
            lambda: float(sum(d.meter.spinup_count for d in all_disks)),
        )
        telemetry.gauge(
            "disks.sleeping",
            lambda: float(sum(1 for d in all_disks if d.is_sleeping)),
        )
        telemetry.gauge(
            "disks.serving",
            lambda: float(sum(1 for d in all_disks if d.state.can_serve)),
        )
        for disk in all_disks:
            telemetry.gauge(
                f"disk.state:{disk.name}",
                lambda d=disk: float(DISK_STATE_CODES[d.state]),
            )
        ssds = [d for d in all_disks if isinstance(d, SSDBackend)]
        if ssds:

            def wa() -> float:
                host = sum(d.host_pages_written for d in ssds)
                nand = sum(d.ftl.counters.nand_pages_programmed for d in ssds)
                return nand / host if host else 0.0

            telemetry.gauge("ssd.write_amplification", wa)
            telemetry.gauge(
                "ssd.erases_total",
                lambda: float(sum(d.ftl.counters.blocks_erased for d in ssds)),
            )
            telemetry.gauge(
                "ssd.gc_pages_relocated",
                lambda: float(sum(d.ftl.counters.pages_relocated for d in ssds)),
            )
            telemetry.gauge(
                "ssd.cache_dirty_bytes",
                lambda: float(sum(d.dirty_bytes for d in ssds)),
            )
            telemetry.gauge(
                "ssd.free_blocks",
                lambda: float(sum(d.ftl.free_blocks for d in ssds)),
            )
        controller = self.online_controller
        if controller is not None:
            telemetry.gauge("online.k", lambda: float(controller.k))
            telemetry.gauge(
                "online.idle_threshold_s",
                lambda: float(controller.idle_threshold_s),
            )

    def run(
        self,
        trace: Trace,
        replay_mode: str = "paced",
        history: Optional[Trace] = None,
    ) -> RunResult:
        """Execute setup + replay and return the measured result.

        ``replay_mode`` selects the client discipline (see
        :meth:`ClientDriver.replay`); ``history`` optionally supplies a
        different trace over the same catalog for the popularity log
        (stale-popularity studies).
        """
        if history is not None and (
            {f.file_id for f in history.files} != {f.file_id for f in trace.files}
        ):
            raise ValueError("history and trace must share a catalog")
        tracer = self.sim.tracer
        setup_span = (
            tracer.begin("setup", "cluster") if tracer is not None else None
        )
        setup = self.server.setup(trace, history=history)
        self.sim.run(until=setup)
        epoch = self.sim.now
        if setup_span is not None and tracer is not None:
            tracer.end(setup_span)
        if self.metaplane is not None:
            # Seed every shard replica from the setup-time metadata, then
            # open the availability measurement window at the epoch.
            self.metaplane.bootstrap(self.server.metadata)
            self.metaplane.reset_measurement(epoch)
        if self.injector is not None:
            self.injector.start(epoch)
        if self.online_controller is not None:
            self.online_controller.start()
        if self.replanner is not None:
            self.replanner.start()

        # Snapshot energy at the start of the measurement window.
        disk_energy_at_epoch = {
            disk.name: disk.energy_j() for node in self.nodes for disk in node.all_disks
        }
        server_energy_at_epoch = self._server_energy_j()

        replay_span = (
            tracer.begin("replay", "cluster") if tracer is not None else None
        )
        replay = self.client.replay(trace, epoch_s=epoch, mode=replay_mode)
        finished = self.sim.run(until=replay)
        if finished is None and self.client.outstanding:
            raise RuntimeError(
                f"run stalled with {self.client.outstanding} outstanding requests"
            )
        end = self.sim.now
        if replay_span is not None and tracer is not None:
            tracer.end(replay_span)
        if end - epoch > RUN_TIMEOUT_S:  # pragma: no cover - guard rail
            raise RuntimeError(f"run exceeded timeout ({end - epoch:.0f}s simulated)")
        if self.metaplane is not None:
            self.metaplane.finalize(end)

        for node in self.nodes:
            node.finalize()

        node_reports: List[NodeReport] = []
        for node in self.nodes:
            disks = []
            for disk in node.all_disks:
                window_energy = disk.energy_j() - disk_energy_at_epoch[disk.name]
                disks.append(
                    DiskReport(
                        name=disk.name,
                        energy_j=window_energy,
                        transitions=disk.transition_count,
                        spinups=disk.meter.spinup_count,
                        spindowns=disk.meter.spindown_count,
                        requests_served=disk.requests_served,
                        time_in_state_s={
                            state.value: t
                            for state, t in disk.meter.time_in_state.items()
                        },
                    )
                )
            node_reports.append(
                NodeReport(
                    name=node.spec.name,
                    base_energy_j=node.spec.base_power_w * (end - epoch),
                    disk_energy_j=sum(d.energy_j for d in disks),
                    transitions=node.transition_count(),
                    buffer_hits=node.buffer_hits,
                    data_disk_hits=node.data_disk_hits,
                    writes_buffered=node.writes_buffered,
                    writes_direct=node.writes_direct,
                    writes_destaged=node.writes_destaged,
                    disks=disks,
                )
            )

        ssds = [
            disk
            for node in self.nodes
            for disk in node.all_disks
            if isinstance(disk, SSDBackend)
        ]
        ssd_host_pages = sum(d.host_pages_written for d in ssds)
        ssd_nand_pages = sum(d.ftl.counters.nand_pages_programmed for d in ssds)

        server_energy = self._server_energy_j() - server_energy_at_epoch
        energy = sum(r.total_energy_j for r in node_reports)
        energy_with_setup = sum(
            node.spec.base_power_w * end + node.disk_energy_j() for node in self.nodes
        )

        return RunResult(
            config=self.config,
            epoch_s=epoch,
            end_s=end,
            energy_j=energy,
            energy_with_setup_j=energy_with_setup,
            transitions=sum(r.transitions for r in node_reports),
            response_times=self.client.response_times,
            nodes=node_reports,
            buffer_hits=sum(n.buffer_hits for n in self.nodes),
            data_disk_hits=sum(n.data_disk_hits for n in self.nodes),
            writes_buffered=sum(n.writes_buffered for n in self.nodes),
            writes_direct=sum(n.writes_direct for n in self.nodes),
            writes_destaged=sum(n.writes_destaged for n in self.nodes),
            prefetch_files_copied=sum(
                n.prefetch_stats.files_copied for n in self.nodes
            ),
            prefetch_bytes_copied=sum(
                n.prefetch_stats.bytes_copied for n in self.nodes
            ),
            server_energy_j=server_energy,
            requests_failed=len(self.client.failures),
            latency_components=self.client.latency_components,
            requests_failed_over=sum(n.requests_failed_over for n in self.nodes),
            requests_unroutable=(
                self.server.requests_unroutable
                + (
                    self.metaplane.requests_unroutable
                    if self.metaplane is not None
                    else 0
                )
            ),
            writes_fanned_out=(
                self.server.writes_fanned_out
                + (
                    self.metaplane.writes_fanned_out
                    if self.metaplane is not None
                    else 0
                )
            ),
            repairs_completed=(
                self.server.repairer.repairs_completed if self.server.repairer else 0
            ),
            repair_bytes_copied=(
                self.server.repairer.bytes_recopied if self.server.repairer else 0
            ),
            under_replicated_files=(
                len(
                    self.server.metadata.under_replicated(
                        self.config.replication_factor
                    )
                )
                if self.config.replication_factor > 1
                else 0
            ),
            fault_events=len(self.injector.log) if self.injector else 0,
            fault_log=self.injector.log if self.injector else None,
            requests_retried=self.client.requests_retried,
            request_timeouts=self.client.request_timeouts,
            requests_abandoned=self.client.requests_abandoned,
            duplicate_replies=self.client.duplicate_replies,
            ssd_host_pages_written=ssd_host_pages,
            ssd_nand_pages_written=ssd_nand_pages,
            ssd_pages_relocated=sum(d.ftl.counters.pages_relocated for d in ssds),
            ssd_erases=sum(d.ftl.counters.blocks_erased for d in ssds),
            ssd_max_erase_count=max(
                (d.ftl.max_erase_count for d in ssds), default=0
            ),
            ssd_write_amplification=(
                ssd_nand_pages / ssd_host_pages if ssd_host_pages else 0.0
            ),
            ssd_cache_hits=sum(d.cache_hits for d in ssds),
            metaplane=(
                self.metaplane.snapshot() if self.metaplane is not None else None
            ),
            online=self._online_snapshot(),
            trace=maybe_snapshot(self.observer),
        )

    def _online_snapshot(self) -> Optional[OnlineStats]:
        if self.online_controller is None:
            return None
        assert self.replanner is not None
        return self.replanner.snapshot(self.online_controller.snapshot())

    def _server_energy_j(self) -> float:
        """Whole-server energy so far (base power only; its disk serves
        metadata, which we charge at idle as part of base power)."""
        return self.cluster.server_base_power_w * self.sim.now


def run_eevfs(
    trace: Trace,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
    obs: bool = False,
) -> RunResult:
    """One-call helper: build a cluster, run *trace* paced, return the
    result.  Faults and other replay modes go through
    :class:`EEVFSCluster` or a :class:`~repro.parallel.jobs.JobSpec`.

    Pass ``obs=True`` to attach span tracing + telemetry and get
    ``result.trace``.
    """
    return EEVFSCluster(cluster=cluster, config=config, seed=seed, obs=obs).run(trace)
