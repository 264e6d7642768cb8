"""Cluster and policy configuration (the paper's Tables I and II).

Two layers of configuration exist:

* :class:`ClusterSpec` / :class:`NodeSpec` -- the *hardware*: how many
  storage nodes, their NICs, disks and base power (Table I), and
* :class:`EEVFSConfig` -- the *policy*: prefetching on/off and depth,
  idle threshold, hints, write buffering (Table II and §III/§IV).

``default_cluster()`` reconstructs the paper's testbed: one storage
server and eight storage nodes (split between the two node types of
Table I), each node with one buffer disk and two data disks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.disk.specs import ATA_80GB_TYPE1, ATA_80GB_TYPE2, DiskSpec
from repro.net.link import FAST_ETHERNET_BPS, GIGABIT_ETHERNET_BPS
from repro.replication.policy import REPLICATION_POLICIES

MB = 1024 * 1024

#: Table II, verbatim: the parameter values each sweep visits.
PARAMETER_GRID = {
    "data_size_mb": (1, 10, 25, 50),
    "mu": (1, 10, 100, 1000),
    "inter_arrival_ms": (0, 350, 700, 1000),
    "prefetch_files": (10, 40, 70, 100),
    "idle_threshold_s": (5,),
}

#: Whole-node base power (CPU, board, RAM, fans -- everything but disks).
#: The paper measured wall power of the storage nodes, so these set the
#: denominator of every savings percentage.  Values are representative of
#: the Pentium-4 era machines in Table I.
TYPE1_BASE_POWER_W = 65.0
TYPE2_BASE_POWER_W = 60.0
SERVER_BASE_POWER_W = 70.0

#: Per-request CPU overhead (lookup, thread wake) at the storage server
#: (or metadata replica) and at a storage node.
SERVER_OVERHEAD_S = 0.0002
NODE_OVERHEAD_S = 0.0002


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one storage node."""

    name: str
    disk_spec: DiskSpec
    n_data_disks: int = 2
    nic_bps: float = GIGABIT_ETHERNET_BPS
    base_power_w: float = TYPE1_BASE_POWER_W
    #: The buffer disk is the OS disk (§IV-B); same model as the data disks.
    buffer_disk_spec: Optional[DiskSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be non-empty")
        if self.n_data_disks < 1:
            raise ValueError(f"{self.name}: need at least 1 data disk")
        if self.nic_bps <= 0:
            raise ValueError(f"{self.name}: nic_bps must be > 0")
        if self.base_power_w < 0:
            raise ValueError(f"{self.name}: base_power_w must be >= 0")

    @property
    def buffer_spec(self) -> DiskSpec:
        """Spec of the buffer disk (defaults to the data-disk model)."""
        return self.buffer_disk_spec or self.disk_spec


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware description of the whole cluster storage system."""

    storage_nodes: tuple[NodeSpec, ...]
    server_nic_bps: float = GIGABIT_ETHERNET_BPS
    server_base_power_w: float = SERVER_BASE_POWER_W
    client_nic_bps: float = GIGABIT_ETHERNET_BPS
    fabric_latency_s: float = 200e-6
    connect_s: float = 500e-6
    #: Relative sd of actual spin-up durations around nominal -- the
    #: mechanical variability that makes predictive wake-ups imperfect
    #: (§VI-C blames response anomalies on skewed wake-up transitions).
    spinup_jitter: float = 0.25
    #: Client replayer thread-pool width (paced mode's outstanding-request
    #: window).  The prototype's replayer sustained a concurrency of ~2-4
    #: inferred from its IA=0 response times and run lengths.
    client_max_outstanding: int = 4

    def __post_init__(self) -> None:
        if not self.storage_nodes:
            raise ValueError("cluster needs at least one storage node")
        names = [n.name for n in self.storage_nodes]
        if len(names) != len(set(names)):
            raise ValueError("storage node names must be unique")
        if self.server_nic_bps <= 0 or self.client_nic_bps <= 0:
            raise ValueError("NIC rates must be > 0")
        if self.spinup_jitter < 0:
            raise ValueError("spinup_jitter must be >= 0")
        if self.client_max_outstanding < 1:
            raise ValueError("client_max_outstanding must be >= 1")

    @property
    def n_nodes(self) -> int:
        return len(self.storage_nodes)

    @property
    def n_data_disks(self) -> int:
        """Total data disks across the cluster."""
        return sum(n.n_data_disks for n in self.storage_nodes)


def default_cluster(
    n_type1: int = 4,
    n_type2: int = 4,
    data_disks_per_node: int = 2,
) -> ClusterSpec:
    """The Table-I testbed: 8 storage nodes of two types, one server.

    The paper states eight storage nodes of two types but not the split;
    we default to 4 + 4 (configurable for ablations).
    """
    if n_type1 < 0 or n_type2 < 0 or n_type1 + n_type2 < 1:
        raise ValueError("need a non-negative split with at least one node")
    nodes: List[NodeSpec] = []
    for i in range(n_type1):
        nodes.append(
            NodeSpec(
                name=f"node{i + 1}",
                disk_spec=ATA_80GB_TYPE1,
                n_data_disks=data_disks_per_node,
                nic_bps=GIGABIT_ETHERNET_BPS,
                base_power_w=TYPE1_BASE_POWER_W,
            )
        )
    for i in range(n_type2):
        nodes.append(
            NodeSpec(
                name=f"node{n_type1 + i + 1}",
                disk_spec=ATA_80GB_TYPE2,
                n_data_disks=data_disks_per_node,
                nic_bps=FAST_ETHERNET_BPS,
                base_power_w=TYPE2_BASE_POWER_W,
            )
        )
    return ClusterSpec(storage_nodes=tuple(nodes))


@dataclass(frozen=True)
class EEVFSConfig:
    """Policy configuration of the file system."""

    #: Master switch: the paper's PF (True) vs NPF (False) modes.  NPF
    #: disables both prefetching and power management -- §IV-C: without
    #: the prediction that prefetching enables, "EEVFS will not place
    #: disks into the standby state".
    prefetch_enabled: bool = True
    #: Global kill-switch for disk power management (timers + hints).
    #: Used by the "caching only" ablation that isolates the prefetcher's
    #: I/O effect from the sleep policy.
    power_management_enabled: bool = True
    #: How the server spreads files over nodes/disks: "round_robin" is
    #: EEVFS (§III-B); "concentrate" packs by popularity (hottest files
    #: fill node 1 / disk 0 first, the PDC baseline layout [15]);
    #: "bandwidth_weighted" biases placement toward fast-NIC nodes
    #: (heterogeneity extension).
    placement_policy: str = "round_robin"
    #: Number of most-popular files copied to buffer disks (Table II K).
    prefetch_files: int = 70
    #: Disk idle threshold (Table II: 5 s).
    idle_threshold_s: float = 5.0
    #: Application hints (§IV-C): storage nodes receive the future access
    #: pattern and sleep disks predictively; without hints they fall back
    #: to pure idle timers.
    use_hints: bool = True
    #: Spin a sleeping disk up ``spinup_s`` before its predicted next
    #: access (requires hints).  §III-C: the node "marks points in time
    #: when the data disks should be transitioned" -- both directions --
    #: so this defaults on.  Queueing skew still produces on-demand wakes
    #: (the §VI-C response-time penalties and the 700 ms anomaly).
    wake_ahead: bool = True
    #: Power-manage disks even with prefetching off (an ablation the
    #: paper's NPF does not do; see `prefetch_enabled`).
    power_manage_without_prefetch: bool = False
    #: How the power manager estimates idle windows: "sequence" counts
    #: look-ahead requests and multiplies by the observed inter-arrival
    #: pace (drift-robust, the paper's "requests look-ahead window");
    #: "time" trusts hinted absolute timestamps (ablation).
    window_predictor: str = "sequence"
    #: §VII future-work extension: stripe each file across this many of a
    #: node's data disks (1 = the paper's whole-file layout).  Striping
    #: parallelises transfers but forces every stripe disk awake per miss.
    stripe_width: int = 1
    #: Dynamic (PRE-BUD-style) re-prefetching in oracle mode: when set,
    #: the replan loop (repro.online.replan) ranks the accesses of the
    #: last ``popularity_window_s`` seconds of the live request log every
    #: ``online_replan_epoch_s`` and replaces the buffer contents once
    #: the top-K drifts by ``online_drift_threshold`` (0: every epoch).
    #: None (the paper's prototype) prefetches once, at setup.
    popularity_window_s: Optional[float] = None
    #: Buffer-disk capacity reserved for prefetch copies; None = whole disk.
    buffer_capacity_bytes: Optional[int] = None
    #: Use leftover buffer space as a write buffer (§III-C, last ¶),
    #: destaged energy-aware by the node (``repro.core.node``).
    write_buffering: bool = True
    #: Replication extension: total copies kept per file across storage
    #: nodes (primary included).  1 = the paper's layout (no replicas).
    #: Above 1, writes fan out to every live holder, and a background
    #: repair loop (``repro.replication.repair``) restores the factor
    #: after failures.
    replication_factor: int = 1
    #: How replica nodes are chosen: "round_robin" puts replica j on the
    #: j-th next node after the primary; "popularity" deals replicas
    #: round-robin in descending popularity order (§III-B applied to
    #: replicas).
    replication_policy: str = "round_robin"
    #: Metadata-plane extension (repro.metaplane): route the request path
    #: through a sharded, replicated, leader-elected metadata service
    #: instead of the single storage server.  The storage server still
    #: performs setup (placement, prefetch, hints); the plane takes over
    #: steps 5-6 lookups once replay begins.
    metadata_plane: bool = False
    #: Number of metadata shards (consistent hashing over file ids).
    metadata_shards: int = 1
    #: Replicas per shard (1 = no fault tolerance, the crash baseline).
    metadata_replicas: int = 1
    #: Client retry policy: how many times a failed request is re-sent
    #: before it is abandoned (recorded as unavailability, never raised).
    request_max_retries: int = 2
    #: Per-attempt response deadline; None disables timeout watchers (the
    #: default keeps fault-free runs event-identical to older seeds --
    #: crash drills that can silently eat requests must set a deadline).
    request_timeout_s: Optional[float] = None
    #: Capped exponential backoff between retries (seeded jitter: see
    #: ``repro.core.client.RetryPolicy``).
    request_backoff_base_s: float = 0.1
    request_backoff_cap_s: float = 2.0
    #: Online mode (repro.online): drop the oracle access log.  Setup
    #: places files in catalog order (no history), sends *no* access
    #: hints, and skips the initial prefetch; a streaming popularity
    #: estimator learns from the observed request stream, an adaptive
    #: controller retunes prefetch-K and the disk idle threshold from
    #: the measured hit ratio and spin-up counts, and an epoch-based
    #: replanner re-prefetches when the estimated top-K drifts.
    online_mode: bool = False
    #: Streaming estimator: "ema" (exact exponentially-decayed counts)
    #: or "cms" (Count-Min Sketch + bounded decaying top-set).
    online_estimator: str = "ema"
    #: Re-prefetch epoch: every epoch the replanner ranks its popularity
    #: source (the streaming estimator, or the ``popularity_window_s``
    #: window in oracle mode), diffs the top-K against the current buffer
    #: plan, and -- when the drift fraction reaches
    #: ``online_drift_threshold`` -- replaces the buffer contents through
    #: the normal prefetch path.
    online_replan_epoch_s: float = 60.0
    online_drift_threshold: float = 0.1
    #: Additionally gate replans on economics: skip when the estimated
    #: migration energy (copying the newly wanted files into the buffer
    #: tier) exceeds the projected savings over the next epoch, even if
    #: the drift threshold was reached.  Fixes the saturation-regime
    #: over-replanning (large files make every replan expensive while a
    #: throttled client generates few hits to pay for it).  Off by
    #: default to keep existing online fingerprints byte-stable.
    online_replan_cost_gate: bool = False
    #: Storage backend per tier (repro.backend): "hdd" is the paper's
    #: spinning drive; "ssd" swaps in the FTL-level flash model.  The
    #: interesting configuration is an SSD *buffer* tier over HDD data
    #: disks -- prefetch copies and destaged writes then contend through
    #: the FTL (write amplification, GC, erase wear) instead of a
    #: spindle queue.
    buffer_backend: str = "hdd"
    data_backend: str = "hdd"
    #: Sweep overrides on the ``SATA_SSD_32GB`` model of SSD-backed
    #: tiers (None = the model's value).
    ssd_capacity_mb: Optional[int] = None
    ssd_channels: Optional[int] = None
    ssd_gc_free_fraction: Optional[float] = None
    #: Idle seconds before an SSD *buffer* tier enters DEVSLP (None =
    #: the buffer never sleeps, matching the HDD buffer-disk policy).
    #: DEVSLP's break-even is tens of milliseconds, so unlike a spindle
    #: the buffer tier can nap between bursts without a latency cliff.
    ssd_buffer_idle_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.prefetch_files < 0:
            raise ValueError("prefetch_files must be >= 0")
        if self.idle_threshold_s < 0:
            raise ValueError("idle_threshold_s must be >= 0")
        if self.buffer_capacity_bytes is not None and self.buffer_capacity_bytes < 0:
            raise ValueError("buffer_capacity_bytes must be >= 0")
        if self.wake_ahead and not self.use_hints:
            raise ValueError("wake_ahead requires use_hints")
        if self.window_predictor not in ("sequence", "time"):
            raise ValueError(f"unknown window_predictor: {self.window_predictor!r}")
        if self.placement_policy not in (
            "round_robin",
            "concentrate",
            "bandwidth_weighted",
        ):
            raise ValueError(f"unknown placement_policy: {self.placement_policy!r}")
        if self.stripe_width < 1:
            raise ValueError(f"stripe_width must be >= 1, got {self.stripe_width!r}")
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {self.replication_factor!r}"
            )
        if self.replication_policy not in REPLICATION_POLICIES:
            raise ValueError(
                f"unknown replication_policy: {self.replication_policy!r}"
            )
        if self.popularity_window_s is not None and self.popularity_window_s <= 0:
            raise ValueError("popularity_window_s must be > 0")
        if self.metadata_shards < 1:
            raise ValueError(
                f"metadata_shards must be >= 1, got {self.metadata_shards!r}"
            )
        if self.metadata_replicas < 1:
            raise ValueError(
                f"metadata_replicas must be >= 1, got {self.metadata_replicas!r}"
            )
        if self.metadata_plane and (
            self.online_mode or self.popularity_window_s is not None
        ):
            raise ValueError(
                "online_mode and popularity_window_s replan from the storage "
                "server's request stream, which metadata_plane routes "
                "around; disable one of them"
            )
        if self.online_estimator not in ("ema", "cms"):
            raise ValueError(f"unknown online_estimator: {self.online_estimator!r}")
        if self.online_replan_epoch_s <= 0:
            raise ValueError("online_replan_epoch_s must be > 0")
        if not 0.0 <= self.online_drift_threshold <= 1.0:
            raise ValueError("online_drift_threshold must be in [0, 1]")
        if self.online_mode:
            if not self.prefetch_enabled:
                raise ValueError(
                    "online_mode is an adaptive *prefetching* mode; it "
                    "needs prefetch_enabled (compare against a plain NPF "
                    "config instead)"
                )
            if self.popularity_window_s is not None:
                raise ValueError(
                    "online_mode ranks by its streaming estimator and would "
                    "ignore popularity_window_s; disable one of them"
                )
        if self.request_max_retries < 0:
            raise ValueError("request_max_retries must be >= 0")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.request_backoff_base_s < 0 or self.request_backoff_cap_s < 0:
            raise ValueError("retry backoff parameters must be >= 0")
        for tier_name, backend in (
            ("buffer_backend", self.buffer_backend),
            ("data_backend", self.data_backend),
        ):
            if backend not in ("hdd", "ssd"):
                raise ValueError(f"unknown {tier_name}: {backend!r}")
        if self.ssd_capacity_mb is not None and self.ssd_capacity_mb < 1:
            raise ValueError("ssd_capacity_mb must be >= 1")
        if self.ssd_channels is not None and self.ssd_channels < 1:
            raise ValueError("ssd_channels must be >= 1")
        if self.ssd_gc_free_fraction is not None and not (
            0 < self.ssd_gc_free_fraction < 0.5
        ):
            raise ValueError("ssd_gc_free_fraction must be in (0, 0.5)")
        if self.ssd_buffer_idle_s is not None and self.ssd_buffer_idle_s < 0:
            raise ValueError("ssd_buffer_idle_s must be >= 0")
        if self.ssd_buffer_idle_s is not None and self.buffer_backend != "ssd":
            raise ValueError("ssd_buffer_idle_s needs buffer_backend='ssd'")
        if "ssd" not in (self.buffer_backend, self.data_backend):
            # An all-HDD cluster has no SSD model for these to override.
            for knob in ("ssd_capacity_mb", "ssd_channels", "ssd_gc_free_fraction"):
                if getattr(self, knob) is not None:
                    raise ValueError(f"{knob} needs buffer_backend or data_backend 'ssd'")

    def as_npf(self) -> "EEVFSConfig":
        """The paper's NPF comparator: same system, prefetching off.

        Online mode is dropped too: it is an adaptive *prefetching* mode,
        so the no-prefetch comparator runs without its controllers.
        """
        return replace(self, prefetch_enabled=False, online_mode=False)

    def as_pf(self) -> "EEVFSConfig":
        """Prefetching on (identity if already on)."""
        return replace(self, prefetch_enabled=True)
