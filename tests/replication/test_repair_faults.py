"""Fault injection landing *during* background re-replication.

The repair loop and the fault injector race by construction: a node can
die while it is the source or target of an in-flight copy, and a second
failure can arrive between a repair's dispatch and its completion.
These tests pin the contracts that race must preserve:

* no file ever gains a duplicate holder (a double-scheduled repair for
  the same deficit would register the same replica twice),
* the repair loop converges -- live factor is restored once the dust
  settles -- without stranding inflight slots,
* the fault log stays time-ordered and byte-identical across same-seed
  runs, even with faults interleaving repair completions, and
* with the metadata plane enabled, replicas learned through repair
  reach the shard leader's replicated state even when the repair
  completed while the shard was leaderless.
"""

import numpy as np

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.faults import FaultSchedule
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


def trace(n_requests=300, seed=6):
    return generate_synthetic_trace(
        SyntheticWorkload(n_files=80, n_requests=n_requests),
        rng=np.random.default_rng(seed),
    )


def mid_repair_schedule():
    """node3 dies (repairs start), then node2 dies while those repairs
    are in flight, then node2 comes back."""
    return (
        FaultSchedule()
        .node_fail("node3", at=20.0)
        .node_fail("node2", at=27.0)
        .node_repair("node2", at=80.0)
    )


class TestFaultMidRepair:
    def _run(self):
        config = EEVFSConfig(replication_factor=2)
        cluster = EEVFSCluster(config=config, faults=mid_repair_schedule())
        result = cluster.run(trace())
        return cluster, result

    def test_no_duplicate_holders(self):
        cluster, _ = self._run()
        md = cluster.server.metadata
        for file_id in range(80):
            holders = md.holders(file_id)
            assert len(holders) == len(set(holders))

    def test_repairs_converge_despite_second_fault(self):
        cluster, result = self._run()
        md = cluster.server.metadata
        assert result.repairs_completed > 0
        assert result.under_replicated_files == 0
        for file_id in range(80):
            assert len(md.live_holders(file_id)) >= 2

    def test_no_inflight_slot_is_lost_or_forked(self):
        # Every completed repair adds exactly one holder (the setup
        # placed two per file).  A double-scheduled file would complete
        # twice for one new holder.
        cluster, result = self._run()
        md = cluster.server.metadata
        added = sum(len(md.holders(file_id)) - 2 for file_id in range(80))
        assert result.repairs_completed == added > 0

    def test_fault_log_ordering_survives_the_race(self):
        _, result = self._run()
        log = result.fault_log
        assert log is not None
        times = [record.time_s for record in log]
        assert times == sorted(times)
        # The injected actions appear in schedule order, with the node
        # crashes expanded into per-disk records in between.
        kinds = [
            (record.kind, record.target)
            for record in log
            if record.kind in ("node_fail", "node_repair")
        ]
        assert kinds == [
            ("node_fail", "node3"),
            ("node_fail", "node2"),
            ("node_repair", "node2"),
        ]

    def test_same_seed_runs_are_identical(self):
        _, first = self._run()
        _, second = self._run()
        assert first.fault_log == second.fault_log
        assert first.repairs_completed == second.repairs_completed
        assert first.repair_bytes_copied == second.repair_bytes_copied
        assert first.requests_failed == second.requests_failed
        assert first.energy_j == second.energy_j


class TestRepairThroughLeaderlessPlane:
    def test_repaired_replicas_reach_the_shard_leader(self):
        """A repair completing while the shard is leaderless queues its
        placement update; the next leader drains the queue, so the
        replicated state catches up with the server's metadata."""
        config = EEVFSConfig(
            replication_factor=2,
            metadata_plane=True,
            metadata_shards=1,
            metadata_replicas=3,
            request_timeout_s=10.0,
            request_max_retries=6,
        )
        schedule = (
            FaultSchedule()
            .node_fail("node3", at=20.0)
            # Kill the metadata leader just before the first repair
            # round completes: commits queue until the re-election.
            .meta_leader_fail(0, at=24.0)
        )
        cluster = EEVFSCluster(config=config, faults=schedule)
        result = cluster.run(trace())
        assert result.repairs_completed > 0
        plane = cluster.metaplane
        assert plane is not None
        leader = plane.server(plane.leader_name(0))
        md = cluster.server.metadata
        for file_id in range(80):
            assert set(leader.state.holders(file_id)) == set(md.holders(file_id))
        assert plane.snapshot().proposals_committed >= result.repairs_completed
