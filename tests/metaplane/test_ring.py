"""Consistent-hash shard ring: stability, coverage, balance."""

import pytest

from repro.metaplane.ring import ShardRing, stable_hash64


class TestStableHash:
    def test_is_deterministic_across_instances(self):
        assert stable_hash64("file:7") == stable_hash64("file:7")

    def test_distinct_keys_differ(self):
        values = {stable_hash64(f"file:{i}") for i in range(1000)}
        assert len(values) == 1000

    def test_fits_in_64_bits(self):
        for key in ("", "file:0", "shard3:63"):
            assert 0 <= stable_hash64(key) < 2**64


class TestShardRing:
    def test_single_shard_owns_everything(self):
        ring = ShardRing(1)
        assert all(ring.shard_of(i) == 0 for i in range(200))

    def test_assignment_in_range_and_stable(self):
        ring = ShardRing(4)
        first = [ring.shard_of(i) for i in range(500)]
        assert all(0 <= s < 4 for s in first)
        assert first == [ring.shard_of(i) for i in range(500)]
        # A second ring with identical parameters agrees point for point
        # (the map is pure: nothing depends on instance identity).
        other = ShardRing(4)
        assert first == [other.shard_of(i) for i in range(500)]

    def test_every_shard_gets_files(self):
        ring = ShardRing(8)
        owners = {ring.shard_of(i) for i in range(1000)}
        assert owners == set(range(8))

    def test_balance_is_roughly_uniform(self):
        ring = ShardRing(4)
        counts = [0, 0, 0, 0]
        for i in range(4000):
            counts[ring.shard_of(i)] += 1
        # 64 vnodes per shard keeps the spread modest: no shard owns
        # more than twice its fair share on a 4000-file catalog.
        assert max(counts) < 2 * (4000 // 4)
        assert min(counts) > 0

    def test_growing_the_ring_moves_only_some_files(self):
        small, big = ShardRing(4), ShardRing(5)
        moved = sum(
            1 for i in range(2000) if small.shard_of(i) != big.shard_of(i)
        )
        # Consistent hashing's point: adding a shard remaps roughly 1/5
        # of the keys, not all of them.
        assert 0 < moved < 1000

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardRing(0)
