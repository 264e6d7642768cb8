"""Tests for energy-aware write-back (destaging) of the write buffer."""

import numpy as np
import pytest

from repro.core import EEVFSConfig, run_eevfs
from repro.core import node as node_module
from repro.core.filesystem import EEVFSCluster
from repro.sim.events import Event
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import MB, SyntheticWorkload


def write_trace(n_requests=150, write_fraction=1.0, seed=9, **kwargs):
    kwargs.setdefault("n_files", 100)
    kwargs.setdefault("mu", 100)
    kwargs.setdefault("data_size_bytes", 2 * MB)
    kwargs.setdefault("inter_arrival_s", 0.5)
    return generate_synthetic_trace(
        SyntheticWorkload(
            n_requests=n_requests, write_fraction=write_fraction, **kwargs
        ),
        rng=np.random.default_rng(seed),
    )


def set_destage(monkeypatch, **constants):
    """Patch ``repro.core.node.DESTAGE_<NAME>`` to each NAME=value."""
    for name, value in constants.items():
        monkeypatch.setattr(node_module, f"DESTAGE_{name.upper()}", value)


class TestDestaging:
    def test_buffered_writes_get_destaged(self, monkeypatch):
        set_destage(monkeypatch, check_interval_s=5.0, max_dirty_age_s=20.0)
        trace = write_trace()
        result = run_eevfs(trace, EEVFSConfig())
        assert result.writes_buffered > 0
        assert result.writes_destaged > 0

    def test_destage_disabled_leaves_data_dirty(self, monkeypatch):
        # The first check falls after the end of the run.
        set_destage(monkeypatch, check_interval_s=1e6)
        trace = write_trace()
        cluster = EEVFSCluster(config=EEVFSConfig())
        result = cluster.run(trace)
        assert result.writes_destaged == 0
        assert any(n.write_buffer.dirty_bytes > 0 for n in cluster.nodes)

    def test_destage_drains_most_dirty_data(self, monkeypatch):
        set_destage(monkeypatch, check_interval_s=2.0, max_dirty_age_s=10.0)
        trace = write_trace(n_requests=100, inter_arrival_s=1.0)
        cluster = EEVFSCluster(config=EEVFSConfig())
        result = cluster.run(trace)
        assert result.writes_destaged >= result.writes_buffered * 0.3

    def test_destage_io_lands_on_data_disks(self, monkeypatch):
        set_destage(monkeypatch, check_interval_s=5.0, max_dirty_age_s=20.0)
        trace = write_trace()
        result = EEVFSCluster(config=EEVFSConfig()).run(trace)
        data_requests = sum(
            d.requests_served for n in result.nodes for d in n.disks if "/data" in d.name
        )
        assert result.writes_destaged > 0
        # Every destage writes its file to the data disks.
        assert data_requests >= result.writes_destaged

    def test_reads_still_served_from_buffer_while_dirty(self, monkeypatch):
        """A read of a dirty file must hit the buffer copy."""
        set_destage(monkeypatch, check_interval_s=1e6)
        trace = write_trace(write_fraction=0.5)
        result = run_eevfs(trace, EEVFSConfig())
        # With destaging effectively off and 50% writes staged, reads of
        # previously written files count as buffer hits.
        assert result.buffer_hits > 0

    def test_forced_destage_at_highwater(self, monkeypatch):
        """A small buffer capacity forces destaging even to sleeping disks."""
        set_destage(monkeypatch, check_interval_s=2.0, highwater_fraction=0.5)
        trace = write_trace(n_requests=120, data_size_bytes=4 * MB)
        config = EEVFSConfig(
            buffer_capacity_bytes=40 * MB,
            prefetch_files=0,  # leave the whole budget to the write buffer
        )
        cluster = EEVFSCluster(config=config)
        result = cluster.run(trace)
        assert result.writes_destaged > 0
        for node in cluster.nodes:
            capacity = node.write_buffer.capacity_bytes
            assert node.write_buffer.dirty_bytes <= capacity

    def test_all_requests_complete_with_destaging(self, monkeypatch):
        set_destage(monkeypatch, check_interval_s=3.0)
        trace = write_trace(write_fraction=0.7)
        result = run_eevfs(trace, EEVFSConfig())
        assert result.requests_total == trace.n_requests


class TestDestageUnderContention:
    """Destage racing host traffic on the buffer disk: the write-back
    must lose to demand I/O, keep serving readers from the (still
    current) buffer copy, and yield to a re-dirtying writer."""

    @staticmethod
    def _node(config=None):
        from repro.core.config import NodeSpec
        from repro.core.node import StorageNode
        from repro.disk.specs import ATA_80GB_TYPE1
        from repro.net.fabric import Fabric
        from repro.sim import Simulator

        sim = Simulator()
        fabric = Fabric(sim)
        fabric.add_endpoint("server", 1e9)
        spec = NodeSpec(name="n1", disk_spec=ATA_80GB_TYPE1, n_data_disks=2)
        node = StorageNode(sim, fabric, spec, config or EEVFSConfig())
        return sim, node

    @staticmethod
    def _destage(node, file_id=0):
        """Start *file_id*'s write-back; returns the event that succeeds
        when it is over."""
        done = Event(node.sim)
        node._destage_one(file_id, done)
        return done

    def _rewrite_mid_destage(self, size_bytes):
        """Destage a dirty 10 MB file while a rewrite of *size_bytes*
        lands during the destage's buffer read; returns the node."""
        sim, node = self._node()
        node.metadata.create(0, 10 * MB)
        node.write_buffer.stage(0, 10 * MB, sim.now)
        destage = self._destage(node)
        sim.call_later(0.01, lambda _value: node.write_buffer.stage(0, size_bytes, sim.now))
        sim.run(until=destage)
        return node

    def test_redirty_mid_destage_keeps_the_newer_copy(self):
        node = self._rewrite_mid_destage(12 * MB)
        # The write-back completed, but the newer staged data survived
        # it: the file is still dirty at the rewritten size.
        assert node.writes_destaged == 1
        assert dict(node.write_buffer.destage_plan()) == {0: 12 * MB}

    @pytest.mark.xfail(
        strict=True,
        reason="_destage_one tells a newer write apart by its size, and the "
        "node stages every write of a file at the same size, so the rewrite "
        "is marked clean; the stage time WriteBuffer keeps would tell them apart",
    )
    def test_redirty_at_the_same_size_keeps_the_newer_copy(self):
        # The size every staged write of this file has in a run.
        node = self._rewrite_mid_destage(10 * MB)
        assert node.writes_destaged == 1
        assert dict(node.write_buffer.destage_plan()) == {0: 10 * MB}

    def test_reads_route_to_buffer_throughout_the_writeback(self):
        sim, node = self._node()
        node.metadata.create(0, 10 * MB)
        node.write_buffer.stage(0, 10 * MB, sim.now)
        destage = self._destage(node)
        sim.run(until=0.01)  # mid write-back
        assert not destage.triggered
        _, served_by = node._route_read(0)
        assert served_by == "buffer"
        sim.run(until=destage)
        # Destaged and clean: the next read goes to the owning data disk.
        _, served_by = node._route_read(0)
        assert served_by.startswith("data")

    def test_demand_read_overtakes_a_queued_destage(self):
        from repro.disk.drive import RequestKind

        sim, node = self._node()
        node.metadata.create(0, 10 * MB)
        node.write_buffer.stage(0, 10 * MB, sim.now)
        # Occupy the buffer disk so the destage's background read queues.
        blocker = node.buffer_disk.submit(8 * MB, kind=RequestKind.READ)
        destage = self._destage(node)
        sim.run(until=0.001)
        assert not blocker.done.triggered  # still in service; destage queued
        demand = node.buffer_disk.submit(1 * MB, kind=RequestKind.READ)
        demand_done_at = []
        demand.done.callbacks.append(lambda _event: demand_done_at.append(sim.now))
        sim.run(until=destage)
        # The demand read arrived *after* the destage read was queued,
        # yet its priority put it on the platters first: it completed
        # strictly before the write-back did.
        assert demand_done_at and demand_done_at[0] < sim.now
