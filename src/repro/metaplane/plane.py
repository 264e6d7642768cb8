"""The metadata-plane facade: shard groups, routing, and availability stats.

:class:`MetaPlane` builds ``metadata_shards`` replica groups of
``metadata_replicas`` :class:`~repro.metaplane.server.MetadataServer`
each, seeds them from the setup-time
:class:`~repro.core.metadata.ServerMetadata` snapshot, and accounts
availability: elections per shard, leaderless time inside the
measurement window, routed/rejected/unroutable requests, committed
placement updates.

Three deliberate simplifications, documented in docs/metadata-plane.md:

* **Leaderless accounting is omniscient** -- the plane (harness-level
  machinery, like the fault injector) watches role transitions directly;
  nothing in the simulated protocol reads these numbers.
* **Node liveness is an oracle** -- ``mark_node_down``/``up`` apply to
  every replica's state directly, the same zero-detection-latency
  membership stand-in the monolithic server uses.
* **Proposal submission is collapsed** -- the repair manager hands a
  placement update to the current leader by direct call (queued while
  the shard is leaderless, drained on the next election win).
  *Replication* of the update -- the part that must survive crashes --
  runs through the real message-passing log protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.config import EEVFSConfig
from repro.core.metadata import ServerMetadata
from repro.metaplane.ring import ShardRing
from repro.metaplane.server import MetadataServer
from repro.net.fabric import Fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def shard_server_name(shard: int, replica: int) -> str:
    """Endpoint name of replica *replica* of shard *shard*."""
    return f"meta-s{shard}-r{replica}"


@dataclass
class ShardStats:
    """Availability metrics for one shard (plain data, picklable)."""

    shard: int
    elections: int = 0
    #: Simulated seconds inside the measurement window with no leader.
    leaderless_s: float = 0.0
    #: Highest term reached by any replica (restlessness diagnostic).
    term: int = 0
    requests_routed: int = 0
    not_leader_rejections: int = 0
    proposals_committed: int = 0


@dataclass
class MetaPlaneStats:
    """Plane-wide availability metrics riding on ``RunResult.metaplane``."""

    n_shards: int
    n_replicas: int
    elections: int = 0
    leaderless_s: float = 0.0
    requests_routed: int = 0
    not_leader_rejections: int = 0
    requests_unroutable: int = 0
    proposals_committed: int = 0
    writes_fanned_out: int = 0
    shards: List[ShardStats] = field(default_factory=list)

    @property
    def max_leaderless_s(self) -> float:
        """Worst single shard's leaderless time."""
        return max((s.leaderless_s for s in self.shards), default=0.0)


class ShardRouter:
    """The client's (non-omniscient) view of where each shard's leader is.

    The router guesses a replica per shard (initially replica 0), jumps
    straight to the leader named by a ``not leader`` rejection hint, and
    rotates through the group on hintless failures (timeouts, crashes) --
    so a client rediscovers a migrated leader within one group's worth of
    retries, without reading any simulator-side truth.
    """

    def __init__(self, ring: ShardRing, groups: List[List[str]]) -> None:
        if len(groups) != ring.n_shards:
            raise ValueError(
                f"{len(groups)} groups for a {ring.n_shards}-shard ring"
            )
        self.ring = ring
        self.groups = [list(group) for group in groups]
        self._guess = [0] * len(groups)

    def route(self, file_id: int) -> str:
        """Endpoint to send this file's request to (current leader guess)."""
        shard = self.ring.shard_of(file_id)
        return self.groups[shard][self._guess[shard]]

    def note_failure(self, file_id: int, hint: Optional[str] = None) -> None:
        """Learn from a failed attempt: follow the hint or rotate."""
        shard = self.ring.shard_of(file_id)
        group = self.groups[shard]
        if hint is not None and hint in group:
            self._guess[shard] = group.index(hint)
        else:
            self._guess[shard] = (self._guess[shard] + 1) % len(group)


class MetaPlane:
    """All shard groups of the metadata plane, wired to one fabric."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        config: EEVFSConfig,
        streams: RandomStreams,
        nic_bps: float,
    ) -> None:
        self.sim = sim
        self.ring = ShardRing(config.metadata_shards)
        self.n_shards = config.metadata_shards
        self.n_replicas = config.metadata_replicas
        self.groups: List[List[str]] = [
            [shard_server_name(shard, replica) for replica in range(self.n_replicas)]
            for shard in range(self.n_shards)
        ]
        self.requests_unroutable = 0
        self.writes_fanned_out = 0
        self._shard_stats = [ShardStats(shard=shard) for shard in range(self.n_shards)]
        #: Omniscient leader tracking for leaderless-time accounting.
        self._leaders: List[Optional[str]] = [None] * self.n_shards
        self._lost_at: List[float] = [0.0] * self.n_shards
        self._epoch: Optional[float] = None
        self._finalized = False
        #: Placement updates awaiting a leader, per shard.
        self._pending: List[List[Tuple[str, int, str]]] = [
            [] for _ in range(self.n_shards)
        ]
        self.servers: List[MetadataServer] = []
        self._by_name: dict[str, MetadataServer] = {}
        for shard in range(self.n_shards):
            group = tuple(self.groups[shard])
            for replica in range(self.n_replicas):
                server = MetadataServer(
                    sim,
                    fabric,
                    plane=self,
                    shard=shard,
                    replica_index=replica,
                    group=group,
                    rng=streams.stream(f"meta:{group[replica]}"),
                    nic_bps=nic_bps,
                )
                self.servers.append(server)
                self._by_name[server.name] = server

    # -- wiring ---------------------------------------------------------------------

    def router(self) -> ShardRouter:
        """A fresh client-side router over this plane's shard map."""
        return ShardRouter(self.ring, self.groups)

    def server(self, name: str) -> MetadataServer:
        """Look up a replica by endpoint name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown metadata server: {name!r}") from None

    def bootstrap(self, metadata: ServerMetadata) -> None:
        """Copy the setup-time metadata into every replica, sharded.

        The initial placement is setup output (known before replay
        starts), so it is installed directly rather than replayed through
        the consensus log -- the log carries only *runtime* updates.
        """
        per_shard: List[List[Tuple[int, str, int, Tuple[str, ...]]]] = [
            [] for _ in range(self.n_shards)
        ]
        for entry in metadata.snapshot():
            per_shard[self.ring.shard_of(entry[0])].append(entry)
        down = metadata.down_nodes()
        for server in self.servers:
            server.load_snapshot(per_shard[server.shard], down)

    # -- node membership (zero-latency oracle, like the monolithic server) -----------

    def mark_node_down(self, node: str) -> None:
        for server in self.servers:
            server.state.mark_node_down(node)

    def mark_node_up(self, node: str) -> None:
        for server in self.servers:
            server.state.mark_node_up(node)

    # -- placement updates ------------------------------------------------------------

    def propose_add_replica(self, file_id: int, node: str) -> None:
        """Submit a placement update to the owning shard's leader.

        Leaderless shards queue the update; the next elected leader
        appends the backlog to its log before serving anything.
        """
        shard = self.ring.shard_of(file_id)
        leader_name = self._leaders[shard]
        if leader_name is not None:
            leader = self._by_name[leader_name]
            if leader.is_leader():
                leader.local_append("add_replica", file_id, node)
                return
        self._pending[shard].append(("add_replica", file_id, node))

    def drain_pending(self, shard: int) -> List[Tuple[str, int, str]]:
        """Hand the shard's queued updates to its new leader."""
        pending, self._pending[shard] = self._pending[shard], []
        return pending

    # -- fault hooks --------------------------------------------------------------------

    def crash_server(self, name: str) -> None:
        self.server(name).crash()

    def repair_server(self, name: str) -> None:
        self.server(name).repair()

    def leader_name(self, shard: int) -> Optional[str]:
        """The shard's current leader (omniscient; None while leaderless)."""
        self._check_shard(shard)
        return self._leaders[shard]

    def crash_leader(self, shard: int) -> Optional[str]:
        """Crash whoever currently leads *shard*; returns its name."""
        name = self.leader_name(shard)
        if name is not None:
            self._by_name[name].crash()
        return name

    def repair_shard(self, shard: int) -> List[str]:
        """Repair every crashed replica of *shard*; returns their names."""
        self._check_shard(shard)
        repaired = []
        for name in self.groups[shard]:
            server = self._by_name[name]
            if not server.alive:
                server.repair()
                repaired.append(name)
        return repaired

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.n_shards:
            raise KeyError(f"unknown shard: {shard!r}")

    # -- accounting (called by the servers) ----------------------------------------------

    def note_election(self, shard: int) -> None:
        self._shard_stats[shard].elections += 1

    def note_leader(self, shard: int, name: str, now: float) -> None:
        if self._leaders[shard] is None and self._epoch is not None:
            start = max(self._lost_at[shard], self._epoch)
            if now > start:
                self._shard_stats[shard].leaderless_s += now - start
        self._leaders[shard] = name

    def note_leader_lost(self, shard: int, name: str, now: float) -> None:
        if self._leaders[shard] == name:
            self._leaders[shard] = None
            self._lost_at[shard] = now

    def note_request(self, shard: int) -> None:
        self._shard_stats[shard].requests_routed += 1

    def note_rejection(self, shard: int) -> None:
        self._shard_stats[shard].not_leader_rejections += 1

    def note_commit(self, shard: int) -> None:
        self._shard_stats[shard].proposals_committed += 1

    # -- measurement window ---------------------------------------------------------------

    def reset_measurement(self, epoch_s: float) -> None:
        """Open the measurement window (leaderless time counts from here)."""
        self._epoch = epoch_s
        for stats in self._shard_stats:
            stats.leaderless_s = 0.0

    def finalize(self, end_s: float) -> None:
        """Close the window: charge still-leaderless shards up to *end_s*."""
        if self._finalized:
            return
        self._finalized = True
        if self._epoch is None:
            return
        for shard in range(self.n_shards):
            if self._leaders[shard] is None:
                start = max(self._lost_at[shard], self._epoch)
                if end_s > start:
                    self._shard_stats[shard].leaderless_s += end_s - start

    def snapshot(self) -> MetaPlaneStats:
        """Freeze the availability metrics into plain data."""
        shards: List[ShardStats] = []
        for shard in range(self.n_shards):
            stats = self._shard_stats[shard]
            stats.term = max(
                server.term for server in self.servers if server.shard == shard
            )
            shards.append(
                ShardStats(
                    shard=stats.shard,
                    elections=stats.elections,
                    leaderless_s=stats.leaderless_s,
                    term=stats.term,
                    requests_routed=stats.requests_routed,
                    not_leader_rejections=stats.not_leader_rejections,
                    proposals_committed=stats.proposals_committed,
                )
            )
        return MetaPlaneStats(
            n_shards=self.n_shards,
            n_replicas=self.n_replicas,
            elections=sum(s.elections for s in shards),
            leaderless_s=sum(s.leaderless_s for s in shards),
            requests_routed=sum(s.requests_routed for s in shards),
            not_leader_rejections=sum(s.not_leader_rejections for s in shards),
            requests_unroutable=self.requests_unroutable,
            proposals_committed=sum(s.proposals_committed for s in shards),
            writes_fanned_out=self.writes_fanned_out,
            shards=shards,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetaPlane shards={self.n_shards} replicas={self.n_replicas}>"
