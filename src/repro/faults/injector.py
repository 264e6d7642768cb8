"""The fault injector: replays a :class:`FaultSchedule` against a cluster.

The injector is harness-level machinery (like the client driver): it
resolves schedule targets against a live :class:`EEVFSCluster`, walks the
materialised actions on the simulation clock, applies each one to the
hardware, and records everything in a :class:`~repro.faults.log.FaultLog`.

Node-level events also update the storage server's node-liveness view --
the stand-in for a heartbeat/membership service, collapsed to zero
detection latency (a knob future work can add).

Schedule times are relative to the *trace epoch*: the cluster facade
starts the injector only once setup (placement + prefetch) completed, so
``at=60`` always means one minute into the measured workload.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.faults.log import FaultLog
from repro.faults.schedule import (
    DISK_FAIL,
    DISK_REPAIR,
    DISK_RESTORE,
    DISK_SLOW,
    FaultAction,
    FaultSchedule,
    HEAL,
    META_FAIL,
    META_LEADER_FAIL,
    META_REPAIR,
    NODE_FAIL,
    NODE_REPAIR,
    PARTITION,
    SPINUP_FLAKY,
)
from repro.sim.engine import hold_slot, Simulator
from repro.sim.events import URGENT
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.filesystem import EEVFSCluster
    from repro.core.node import StorageNode
    from repro.disk.drive import StorageBackend
    from repro.metaplane.plane import MetaPlane


class FaultInjector:
    """Applies a fault schedule to a wired cluster and logs the outcome."""

    def __init__(
        self,
        sim: Simulator,
        cluster: "EEVFSCluster",
        schedule: FaultSchedule,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.log = FaultLog()
        self.actions = schedule.materialize(streams)
        self._nodes: Dict[str, "StorageNode"] = {
            node.spec.name: node for node in cluster.nodes
        }
        self._disks: Dict[str, "StorageBackend"] = {
            disk.name: disk for node in cluster.nodes for disk in node.all_disks
        }
        for action in self.actions:  # fail fast on typos, before the run
            self._resolve(action)
        self._started = False
        #: Simulated time the schedule's offsets count from.
        self._epoch_s = 0.0

    def start(self, epoch_s: float) -> None:
        """Begin injecting; schedule times are offsets from *epoch_s*."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        self._epoch_s = epoch_s
        self.sim.call_soon(self._inject, 0, priority=URGENT)

    # -- internals ---------------------------------------------------------------

    def _node(self, action: FaultAction) -> "StorageNode":
        try:
            return self._nodes[action.target]
        except KeyError:
            raise KeyError(f"unknown storage node: {action.target!r}") from None

    def _disk(self, action: FaultAction) -> "StorageBackend":
        try:
            return self._disks[action.target]
        except KeyError:
            raise KeyError(f"unknown disk: {action.target!r}") from None

    def _plane(self, action: FaultAction) -> "MetaPlane":
        plane = self.cluster.metaplane
        if plane is None:
            raise ValueError(
                f"fault {action.kind!r} targets the metadata plane, but the "
                f"cluster runs without one (config.metadata_plane is off)"
            )
        return plane

    @staticmethod
    def _shard_index(target: str) -> Optional[int]:
        """Parse a ``"shard<k>"`` target; None if it names a replica."""
        if target.startswith("shard"):
            try:
                return int(target[len("shard") :])
            except ValueError:
                raise ValueError(f"malformed shard target: {target!r}") from None
        return None

    def _resolve(self, action: FaultAction) -> object:
        """Target object for an action; raises KeyError on unknown names."""
        if action.kind in (NODE_FAIL, NODE_REPAIR):
            return self._node(action)
        if action.kind in (PARTITION, HEAL):
            return self.cluster.fabric.endpoint(action.target)
        if action.kind == META_FAIL:
            return self._plane(action).server(action.target)
        if action.kind == META_LEADER_FAIL:
            plane = self._plane(action)
            shard = self._shard_index(action.target)
            if shard is None or not 0 <= shard < plane.n_shards:
                raise KeyError(f"unknown shard: {action.target!r}")
            return plane  # the victim replica is resolved at apply time
        if action.kind == META_REPAIR:
            plane = self._plane(action)
            shard = self._shard_index(action.target)
            if shard is None:
                return plane.server(action.target)
            if not 0 <= shard < plane.n_shards:
                raise KeyError(f"unknown shard: {action.target!r}")
            return plane
        return self._disk(action)

    def _inject(self, index: int) -> None:
        """Apply every due action from *index* on and sleep until the
        next; after the last, hold the slot of the injector's completion."""
        while index < len(self.actions):
            at = self._epoch_s + self.actions[index].time_s
            if at > self.sim.now:
                self.sim.call_later(at - self.sim.now, self._wake, index)
                return
            self._apply(self.actions[index])
            index += 1
        self.sim.call_soon(hold_slot)

    def _wake(self, index: int) -> None:
        self._apply(self.actions[index])
        self._inject(index + 1)

    def _apply(self, action: FaultAction) -> None:
        t = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            # ``kind`` is the span kind itself; the fault's kind rides
            # as the ``action`` tag.
            tracer.instant("fault", action.target, action=action.kind)
        if action.kind == DISK_FAIL:
            self._disk(action).fail()
            self.log.record(t, DISK_FAIL, action.target)
        elif action.kind == DISK_REPAIR:
            self._disk(action).repair()
            self.log.record(t, DISK_REPAIR, action.target)
        elif action.kind == DISK_SLOW:
            self._disk(action).set_slowdown(action.value)
            self.log.record(
                t, DISK_SLOW, action.target, detail=f"x{action.value:g}"
            )
        elif action.kind == DISK_RESTORE:
            self._disk(action).set_slowdown(1.0)
            self.log.record(t, DISK_RESTORE, action.target)
        elif action.kind == SPINUP_FLAKY:
            self._disk(action).inject_spinup_failures(
                int(action.value), backoff_s=action.value2
            )
            self.log.record(
                t,
                SPINUP_FLAKY,
                action.target,
                detail=f"next {int(action.value)} attempts",
            )
        elif action.kind == NODE_FAIL:
            node = self._node(action)
            node.crash()
            self.cluster.server.metadata.mark_node_down(action.target)
            if self.cluster.metaplane is not None:
                self.cluster.metaplane.mark_node_down(action.target)
            self.log.record(
                t,
                NODE_FAIL,
                action.target,
                detail=f"{len(node.all_disks)} disks down",
            )
        elif action.kind == NODE_REPAIR:
            self._node(action).repair_node()
            self.cluster.server.metadata.mark_node_up(action.target)
            if self.cluster.metaplane is not None:
                self.cluster.metaplane.mark_node_up(action.target)
            self.log.record(t, NODE_REPAIR, action.target)
        elif action.kind == META_FAIL:
            self._plane(action).crash_server(action.target)
            self.log.record(t, META_FAIL, action.target)
        elif action.kind == META_LEADER_FAIL:
            plane = self._plane(action)
            shard = self._shard_index(action.target)
            assert shard is not None  # _resolve validated the target
            victim = plane.crash_leader(shard)
            self.log.record(
                t,
                META_LEADER_FAIL,
                action.target,
                detail=victim if victim is not None else "already leaderless",
            )
        elif action.kind == META_REPAIR:
            plane = self._plane(action)
            shard = self._shard_index(action.target)
            if shard is None:
                plane.repair_server(action.target)
                self.log.record(t, META_REPAIR, action.target)
            else:
                repaired = plane.repair_shard(shard)
                self.log.record(
                    t,
                    META_REPAIR,
                    action.target,
                    detail=",".join(repaired) if repaired else "nothing crashed",
                )
        elif action.kind == PARTITION:
            self.cluster.fabric.set_partitioned(action.target, True)
            self.log.record(t, PARTITION, action.target)
        elif action.kind == HEAL:
            self.cluster.fabric.set_partitioned(action.target, False)
            self.log.record(t, HEAL, action.target)
        else:  # pragma: no cover - schedule validates kinds
            raise ValueError(f"unknown fault kind: {action.kind!r}")
