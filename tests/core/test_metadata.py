"""Unit tests for distributed metadata (server + node)."""

import pytest

from repro.core.metadata import NodeMetadata, ServerMetadata


class TestServerMetadata:
    def test_register_and_lookup(self):
        meta = ServerMetadata()
        meta.register(1, "node1", 100)
        entry = meta.lookup(1)
        assert entry.node == "node1"
        assert entry.size_bytes == 100

    def test_double_register_rejected(self):
        meta = ServerMetadata()
        meta.register(1, "node1", 100)
        with pytest.raises(ValueError):
            meta.register(1, "node2", 100)

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError):
            ServerMetadata().lookup(42)

    def test_validation(self):
        meta = ServerMetadata()
        with pytest.raises(ValueError):
            meta.register(1, "", 100)
        with pytest.raises(ValueError):
            meta.register(1, "n", -1)

    def test_contains_and_len(self):
        meta = ServerMetadata()
        meta.register(1, "n", 0)
        assert 1 in meta
        assert 2 not in meta
        assert len(meta) == 1

    def test_bytes_on_node(self):
        meta = ServerMetadata()
        meta.register(1, "a", 10)
        meta.register(2, "a", 30)
        assert meta.bytes_on("a") == 40


class TestNodeMetadataPlacement:
    def test_round_robin_across_disks(self):
        """§III-B: creation order is popularity order, so round-robin
        spreads hot files across the node's disks."""
        meta = NodeMetadata(n_data_disks=3)
        disks = [meta.create(fid, 100) for fid in (10, 11, 12, 13, 14, 15)]
        assert disks == [0, 1, 2, 0, 1, 2]

    def test_single_disk(self):
        meta = NodeMetadata(n_data_disks=1)
        assert meta.create(0, 1) == 0
        assert meta.create(1, 1) == 0

    def test_duplicate_create_rejected(self):
        meta = NodeMetadata(n_data_disks=2)
        meta.create(5, 100)
        with pytest.raises(ValueError):
            meta.create(5, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeMetadata(n_data_disks=0)
        meta = NodeMetadata(n_data_disks=1)
        with pytest.raises(ValueError):
            meta.create(0, -1)

    def test_lookups(self):
        meta = NodeMetadata(n_data_disks=2)
        meta.create(7, 123)
        assert meta.disk_of(7) == 0
        assert meta.size_of(7) == 123
        assert 7 in meta
        with pytest.raises(KeyError):
            meta.disk_of(8)
        with pytest.raises(KeyError):
            meta.size_of(8)

    def test_files_listing(self):
        meta = NodeMetadata(n_data_disks=2)
        for fid in (5, 3, 8):
            meta.create(fid, 1)
        assert meta.files() == [3, 5, 8]
        assert [meta.disk_of(fid) for fid in (5, 3, 8)] == [0, 1, 0]


class TestNodeMetadataPrefetch:
    def test_mark_and_query(self):
        meta = NodeMetadata(n_data_disks=1, buffer_capacity_bytes=1000)
        meta.create(1, 100)
        assert not meta.is_prefetched(1)
        assert meta.can_prefetch(1)
        meta.mark_prefetched(1)
        assert meta.is_prefetched(1)
        assert meta.prefetched_files() == [1]
        assert meta.buffer_free_bytes() == 900

    def test_cannot_prefetch_unknown_file(self):
        meta = NodeMetadata(n_data_disks=1)
        assert not meta.can_prefetch(9)
        with pytest.raises(KeyError):
            meta.mark_prefetched(9)

    def test_cannot_prefetch_twice(self):
        meta = NodeMetadata(n_data_disks=1)
        meta.create(1, 100)
        meta.mark_prefetched(1)
        assert not meta.can_prefetch(1)
        with pytest.raises(ValueError):
            meta.mark_prefetched(1)

    def test_capacity_limits_prefetch(self):
        meta = NodeMetadata(n_data_disks=1, buffer_capacity_bytes=150)
        meta.create(1, 100)
        meta.create(2, 100)
        meta.create(3, 50)
        meta.mark_prefetched(1)
        assert not meta.can_prefetch(2)  # 100 > 50 free
        assert meta.can_prefetch(3)  # 50 fits exactly
        meta.mark_prefetched(3)
        assert meta.buffer_free_bytes() == 0

    def test_capacity_overflow_rejected(self):
        meta = NodeMetadata(n_data_disks=1, buffer_capacity_bytes=50)
        meta.create(1, 100)
        with pytest.raises(ValueError):
            meta.mark_prefetched(1)

    def test_unbounded_capacity(self):
        meta = NodeMetadata(n_data_disks=1)
        assert meta.buffer_free_bytes() is None
