"""Degraded reads and background re-replication, end to end."""

import numpy as np
import pytest

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.replication import repair
from repro.core.metadata import ServerMetadata
from repro.faults import FaultSchedule
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


def trace(n_requests=300, seed=6):
    return generate_synthetic_trace(
        SyntheticWorkload(n_files=80, n_requests=n_requests),
        rng=np.random.default_rng(seed),
    )


class TestServerMetadataReplicas:
    def test_holders_primary_first(self):
        md = ServerMetadata()
        md.register(1, "node1", 100)
        md.add_replica(1, "node4")
        md.add_replica(1, "node2")
        assert md.holders(1) == ["node1", "node4", "node2"]

    def test_duplicate_holder_rejected(self):
        md = ServerMetadata()
        md.register(1, "node1", 100)
        with pytest.raises(ValueError):
            md.add_replica(1, "node1")
        md.add_replica(1, "node2")
        with pytest.raises(ValueError):
            md.add_replica(1, "node2")

    def test_liveness_filters_holders(self):
        md = ServerMetadata()
        md.register(1, "node1", 100)
        md.add_replica(1, "node2")
        md.mark_node_down("node1")
        assert md.live_holders(1) == ["node2"]
        assert md.under_replicated(2) == [1]
        md.mark_node_up("node1")
        assert md.live_holders(1) == ["node1", "node2"]
        assert md.under_replicated(2) == []

    def test_bytes_on_counts_replicas(self):
        md = ServerMetadata()
        md.register(1, "node1", 100)
        md.register(2, "node2", 70)
        md.add_replica(1, "node2")
        assert md.bytes_on("node2") == 170


class TestReplicatedSetup:
    def test_every_file_has_factor_holders(self):
        cluster = EEVFSCluster(config=EEVFSConfig(replication_factor=2))
        result = cluster.run(trace(n_requests=50))
        md = cluster.server.metadata
        for file_id in range(80):
            assert len(md.holders(file_id)) == 2
        assert result.under_replicated_files == 0

    def test_replica_holders_have_the_file_locally(self):
        cluster = EEVFSCluster(config=EEVFSConfig(replication_factor=2))
        cluster.run(trace(n_requests=50))
        nodes = {n.spec.name: n for n in cluster.nodes}
        md = cluster.server.metadata
        for file_id in range(80):
            for holder in md.holders(file_id):
                assert file_id in nodes[holder].metadata

    def test_factor_capped_by_cluster_size(self):
        with pytest.raises(ValueError, match="exceeds"):
            EEVFSCluster(config=EEVFSConfig(replication_factor=9))


class TestSingleDiskFailover:
    def test_reads_fail_over_to_replica(self):
        """One dead data disk, factor 2: nothing is client-visible."""
        config = EEVFSConfig(replication_factor=2, prefetch_enabled=False)
        cluster = EEVFSCluster(
            config=config,
            faults=FaultSchedule().disk_fail("node1/data0", at=10.0),
        )
        result = cluster.run(trace())
        assert result.requests_failed == 0
        assert result.availability == 1.0
        assert result.requests_failed_over > 0

    def test_without_replication_the_same_failure_loses_requests(self):
        config = EEVFSConfig(prefetch_enabled=False)
        cluster = EEVFSCluster(
            config=config,
            faults=FaultSchedule().disk_fail("node1/data0", at=10.0),
        )
        result = cluster.run(trace())
        assert result.requests_failed > 0
        assert result.availability < 1.0


class TestWholeNodeFailover:
    def test_node_loss_is_masked_by_replicas(self):
        config = EEVFSConfig(replication_factor=2)
        cluster = EEVFSCluster(
            config=config,
            faults=FaultSchedule().node_fail("node3", at=20.0),
        )
        result = cluster.run(trace())
        assert result.requests_failed == 0
        assert result.availability == 1.0

    def test_node_loss_without_replication_is_not(self):
        cluster = EEVFSCluster(
            faults=FaultSchedule().node_fail("node3", at=20.0),
        )
        result = cluster.run(trace())
        assert result.requests_failed > 0
        # Zero-latency down-marking: every failed attempt is an
        # unroutable drop, and with the node never repaired each doomed
        # request burns its full retry budget before being abandoned.
        attempts = 1 + result.config.request_max_retries
        assert result.requests_abandoned == result.requests_failed
        assert result.requests_failed <= result.requests_unroutable
        assert result.requests_unroutable <= attempts * result.requests_failed
        assert result.requests_retried > 0
        assert result.requests_total + result.requests_failed == 300

    def test_losing_every_holder_fails_cleanly(self):
        """Factor 2, both holder nodes down: explicit failures, no hang."""
        config = EEVFSConfig(replication_factor=2)
        cluster = EEVFSCluster(
            config=config,
            faults=(
                FaultSchedule()
                .node_fail("node1", at=10.0)
                .node_fail("node2", at=10.0)
            ),
        )
        result = cluster.run(trace())
        assert result.requests_failed > 0
        assert result.requests_total + result.requests_failed == 300


class TestReReplication:
    def test_factor_restored_after_node_loss(self):
        config = EEVFSConfig(replication_factor=2)
        cluster = EEVFSCluster(
            config=config,
            faults=FaultSchedule().node_fail("node3", at=20.0),
        )
        result = cluster.run(trace(n_requests=300))
        md = cluster.server.metadata
        # node3 held primaries and replicas; every one of those files is
        # back to 2 live holders by the end of the run.
        assert result.under_replicated_files == 0
        assert result.repairs_completed > 0
        assert result.repair_bytes_copied > 0
        for file_id in range(80):
            assert len(md.live_holders(file_id)) >= 2

    def test_repair_respects_batch_throttle(self, monkeypatch):
        monkeypatch.setattr(repair, "REREPLICATION_BATCH", 1)
        monkeypatch.setattr(repair, "REREPLICATION_CHECK_INTERVAL_S", 30.0)
        config = EEVFSConfig(replication_factor=2)
        cluster = EEVFSCluster(
            config=config,
            faults=FaultSchedule().node_fail("node3", at=20.0),
        )
        result = cluster.run(trace())
        # ~180 s after the crash at a 30 s interval and batch 1: at most
        # a handful of repairs can have run; the throttle is real.
        assert 0 < result.repairs_completed <= 7


class TestReplicatedWrites:
    def test_writes_fan_out_to_replicas(self):
        mixed = generate_synthetic_trace(
            SyntheticWorkload(n_files=80, n_requests=200, write_fraction=0.3),
            rng=np.random.default_rng(6),
        )
        config = EEVFSConfig(replication_factor=2)
        cluster = EEVFSCluster(config=config)
        result = cluster.run(mixed)
        assert result.writes_fanned_out > 0
        assert result.requests_failed == 0
