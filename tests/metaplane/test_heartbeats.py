"""The cheap heartbeat path: block-drawn timeouts and reused payloads.

A follower redraws its election timeout on every heartbeat, and a
leader in steady state sends the same ``AppendEntries`` every round.
The server therefore draws timeouts a block at a time and rebuilds a
consensus payload only when a field of it changes.  These tests check
that neither shortcut is visible: the deadlines are the one-at-a-time
draws, and every payload sent is the one the current state describes.
"""

import pytest

from repro.core.config import EEVFSConfig
from repro.core.metadata import ServerMetadata
from repro.metaplane.messages import AppendEntries, AppendReply
from repro.metaplane.plane import MetaPlane
from repro.metaplane.server import (
    ELECTION_TIMEOUT_BLOCK,
    ELECTION_TIMEOUT_MAX_S,
    ELECTION_TIMEOUT_MIN_S,
    MetadataServer,
)
from repro.net.fabric import Fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

GBPS = 125_000_000.0  # 1 Gb/s in bytes per second
SEED = 3


def make_plane(replicas=3):
    sim = Simulator()
    fabric = Fabric(sim)
    config = EEVFSConfig(metadata_plane=True, metadata_shards=1, metadata_replicas=replicas)
    plane = MetaPlane(sim, fabric, config=config, streams=RandomStreams(SEED), nic_bps=GBPS)
    metadata = ServerMetadata()
    for file_id in range(1, 4):
        metadata.register(file_id, f"node{file_id}", 100)
    plane.bootstrap(metadata)
    return sim, fabric, plane


def test_election_deadlines_are_the_one_at_a_time_draws(monkeypatch):
    """Across several block boundaries, each deadline is ``now`` plus the
    next scalar draw of a fresh stream with the replica's name."""
    resets = []
    reset = MetadataServer._reset_election_deadline

    def recorded(self):
        reset(self)
        resets.append((self.name, self.sim.now, self._election_deadline))

    monkeypatch.setattr(MetadataServer, "_reset_election_deadline", recorded)
    sim, _, plane = make_plane()
    sim.run(until=70.0)
    plane.crash_leader(0)
    sim.run(until=80.0)

    fresh = RandomStreams(SEED)
    for name in plane.groups[0]:
        mine = [(now, deadline) for who, now, deadline in resets if who == name]
        rng = fresh.stream(f"meta:{name}")
        expected = [
            now + float(rng.uniform(ELECTION_TIMEOUT_MIN_S, ELECTION_TIMEOUT_MAX_S))
            for now, _ in mine
        ]
        assert [deadline for _, deadline in mine] == expected
    assert max(sum(who == name for who, *_ in resets) for name in plane.groups[0]) > (
        3 * ELECTION_TIMEOUT_BLOCK
    )


class TestHeartbeatPayloads:
    """Every ``AppendEntries`` and ``AppendReply`` sent is current."""

    @pytest.fixture
    def sends(self):
        """Run one shard through appends, commits and two leader crashes;
        return every consensus send as ``(now, src, dst, payload)`` and
        the plane.  Each payload is checked against the sender's state
        at the moment it is sent."""
        sim, fabric, plane = make_plane()
        sent = []
        send = fabric.send_nowait

        def checked(src, dst, payload):
            server = plane.server(src)
            if isinstance(payload, AppendEntries):
                next_index = server.next_index[dst]
                prev_index = next_index - 1
                assert payload == AppendEntries(
                    term=server.term,
                    leader=src,
                    prev_index=prev_index,
                    prev_term=server.log[prev_index].term if prev_index >= 0 else 0,
                    entries=tuple(server.log[next_index:]),
                    commit_index=server.commit_index,
                )
            elif isinstance(payload, AppendReply):
                assert (payload.term, payload.follower) == (server.term, src)
                # An accepted append leaves the follower's log ending at
                # the reported match; a rejection reports no match.
                assert payload.match_index == (len(server.log) - 1 if payload.ok else -1)
            if isinstance(payload, (AppendEntries, AppendReply)):
                sent.append((sim.now, src, dst, payload))
            send(src, dst, payload)

        fabric.send_nowait = checked
        sim.run(until=6.0)
        plane.propose_add_replica(1, "node4")
        sim.run(until=10.0)
        first = plane.crash_leader(0)
        sim.run(until=16.0)
        plane.propose_add_replica(2, "node5")
        sim.run(until=20.0)
        plane.repair_server(first)
        sim.run(until=24.0)
        second = plane.crash_leader(0)
        sim.run(until=30.0)
        plane.repair_server(second)
        plane.propose_add_replica(3, "node6")
        sim.run(until=36.0)
        return sent, plane

    @staticmethod
    def heartbeats(sent, leader):
        return [
            (now, p) for now, src, _, p in sent if src == leader and isinstance(p, AppendEntries)
        ]

    def test_the_scenario_covers_every_change(self, sends):
        sent, plane = sends
        entries = [p for *_, p in sent if isinstance(p, AppendEntries)]
        assert any(p.entries for p in entries)
        assert {p.commit_index for p in entries} >= {-1, 0, 1, 2}
        assert len({p.term for p in entries}) >= 3
        assert plane.snapshot().proposals_committed == 3

    def test_heartbeat_after_local_append_carries_the_entry(self, sends):
        sent, _ = sends
        leader = next(src for now, src, _, p in sent if isinstance(p, AppendEntries))
        after = [p for now, p in self.heartbeats(sent, leader) if now >= 6.0]
        assert after[0].entries and after[0].entries[-1].file_id == 1
        assert after[0].entries[-1].node == "node4"

    def test_heartbeat_after_commit_carries_the_commit_index(self, sends):
        sent, _ = sends
        leader = next(src for now, src, _, p in sent if isinstance(p, AppendEntries))
        rounds = [p for now, p in self.heartbeats(sent, leader) if now >= 6.0]
        committed = next(i for i, p in enumerate(rounds) if p.commit_index == 0)
        assert rounds[committed - 1].commit_index == -1
        assert rounds[committed] is not rounds[committed - 1]

    def test_heartbeat_after_a_new_term_carries_the_term(self, sends):
        sent, _ = sends
        terms = {}
        for _, src, _, payload in sent:
            if isinstance(payload, AppendEntries):
                terms.setdefault(src, []).append(payload.term)
        assert all(t == sorted(t) for t in terms.values())
        # One replica leads two terms, so its payload outlives a term.
        assert any(len(set(t)) > 1 for t in terms.values())

    def test_reply_after_append_carries_the_match_index(self, sends):
        sent, _ = sends
        matched = {p.match_index for *_, p in sent if isinstance(p, AppendReply) and p.ok}
        assert matched >= {-1, 0, 1, 2}

    def test_steady_heartbeats_reuse_one_payload(self, sends):
        sent, _ = sends
        leader = next(src for now, src, _, p in sent if isinstance(p, AppendEntries))
        steady = [p for now, p in self.heartbeats(sent, leader) if 2.0 < now < 6.0]
        assert len(steady) >= 4
        assert all(p is steady[0] for p in steady)
        replies = [
            p
            for now, src, _, p in sent
            if isinstance(p, AppendReply) and src != leader and 2.0 < now < 6.0
        ]
        assert len({id(p) for p in replies}) == 2  # one per follower

