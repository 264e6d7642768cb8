"""Leader election and log replication inside one shard group.

These tests drive a :class:`MetaPlane` directly on a bare simulator and
fabric -- no storage cluster, no workload -- so each scenario isolates
one consensus behaviour: electing, re-electing around a crash, refusing
to elect without quorum, and replicating placement updates (including
ones queued while leaderless).
"""

import pytest

from repro.core.config import EEVFSConfig
from repro.core.metadata import ServerMetadata
from repro.metaplane.plane import MetaPlane
from repro.net.fabric import Fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

GBPS = 125_000_000.0  # 1 Gb/s in bytes per second


def make_plane(shards=1, replicas=3, seed=0):
    sim = Simulator()
    fabric = Fabric(sim)
    config = EEVFSConfig(
        metadata_plane=True,
        metadata_shards=shards,
        metadata_replicas=replicas,
    )
    plane = MetaPlane(
        sim, fabric, config=config, streams=RandomStreams(seed), nic_bps=GBPS
    )
    return sim, plane


def leaders_of(plane, shard):
    group = plane.groups[shard]
    return [name for name in group if plane.server(name).is_leader()]


class TestElection:
    def test_exactly_one_leader_per_shard(self):
        sim, plane = make_plane(shards=3, replicas=3)
        sim.run(until=6.0)  # two election-timeout windows
        for shard in range(3):
            assert len(leaders_of(plane, shard)) == 1
            assert plane.leader_name(shard) in plane.groups[shard]

    def test_single_replica_elects_itself(self):
        sim, plane = make_plane(replicas=1)
        sim.run(until=4.0)
        (name,) = plane.groups[0]
        assert plane.server(name).is_leader()
        assert plane.server(name).term == 1

    def test_crash_triggers_reelection_with_higher_term(self):
        sim, plane = make_plane(replicas=3)
        sim.run(until=6.0)
        old = plane.leader_name(0)
        old_term = plane.server(old).term
        plane.crash_leader(0)
        sim.run(until=12.0)
        new = plane.leader_name(0)
        assert new is not None and new != old
        assert plane.server(new).term > old_term
        assert not plane.server(old).is_leader()

    def test_no_quorum_means_no_leader(self):
        sim, plane = make_plane(replicas=3)
        sim.run(until=6.0)
        group = plane.groups[0]
        plane.crash_leader(0)
        # Kill one survivor too: 1 of 3 alive, majority is unreachable.
        crashed = [n for n in group if not plane.server(n).alive]
        alive = [n for n in group if plane.server(n).alive]
        plane.crash_server(alive[0])
        sim.run(until=20.0)
        assert plane.leader_name(0) is None
        assert leaders_of(plane, 0) == []
        # The lone survivor keeps campaigning (terms grow) but never wins.
        assert plane.server(alive[1]).term > plane.server(crashed[0]).term

    def test_repair_restores_quorum_and_leadership(self):
        sim, plane = make_plane(replicas=3)
        sim.run(until=6.0)
        plane.crash_leader(0)
        alive = [n for n in plane.groups[0] if plane.server(n).alive]
        plane.crash_server(alive[0])
        sim.run(until=12.0)
        assert plane.leader_name(0) is None
        plane.repair_shard(0)
        sim.run(until=20.0)
        assert plane.leader_name(0) is not None
        assert len(leaders_of(plane, 0)) == 1

    def test_leaderless_time_is_charged_to_the_window(self):
        sim, plane = make_plane(replicas=1)
        sim.run(until=4.0)
        plane.reset_measurement(4.0)
        plane.crash_leader(0)
        sim.run(until=10.0)
        plane.finalize(10.0)
        stats = plane.snapshot()
        # The single replica stays crashed: the whole remaining window
        # is leaderless.
        assert stats.leaderless_s == pytest.approx(6.0)
        assert stats.max_leaderless_s == pytest.approx(6.0)


class TestLogReplication:
    def _bootstrapped(self, replicas=3):
        sim, plane = make_plane(replicas=replicas)
        md = ServerMetadata()
        md.register(1, "node1", 100)
        md.register(2, "node2", 200)
        plane.bootstrap(md)
        sim.run(until=6.0)
        return sim, plane

    def test_bootstrap_installs_state_on_every_replica(self):
        sim, plane = self._bootstrapped()
        for name in plane.groups[0]:
            state = plane.server(name).state
            assert state.holders(1) == ["node1"]
            assert state.holders(2) == ["node2"]

    def test_committed_update_reaches_every_replica(self):
        sim, plane = self._bootstrapped()
        plane.propose_add_replica(1, "node4")
        sim.run(until=9.0)  # a few heartbeat rounds to commit + apply
        for name in plane.groups[0]:
            assert "node4" in plane.server(name).state.holders(1)
        assert plane.snapshot().proposals_committed == 1

    def test_update_queued_while_leaderless_is_drained_by_next_leader(self):
        sim, plane = self._bootstrapped()
        group = plane.groups[0]
        plane.crash_leader(0)
        alive = [n for n in group if plane.server(n).alive]
        plane.crash_server(alive[0])
        sim.run(until=10.0)
        assert plane.leader_name(0) is None
        plane.propose_add_replica(2, "node4")  # nobody can append this yet
        plane.repair_shard(0)
        sim.run(until=20.0)
        for name in group:
            assert "node4" in plane.server(name).state.holders(2)

    def test_crash_preserves_log_across_repair(self):
        sim, plane = self._bootstrapped()
        plane.propose_add_replica(1, "node4")
        sim.run(until=9.0)
        victim = plane.leader_name(0)
        log_before = list(plane.server(victim).log)
        assert log_before  # the committed entry is in the leader's log
        plane.crash_server(victim)
        sim.run(until=15.0)
        assert plane.server(victim).log == log_before
        plane.repair_server(victim)
        sim.run(until=22.0)
        # The repaired replica rejoins as a follower and still applies
        # the entry it already held.
        assert "node4" in plane.server(victim).state.holders(1)
