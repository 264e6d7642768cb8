"""Unit and property tests for the MAID LRU file cache."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.baselines import LRUFileCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = LRUFileCache(capacity_bytes=100)
        assert cache.access(1) is False
        cache.insert(1, 50)
        assert cache.access(1) is True

    def test_eviction_is_lru_order(self):
        cache = LRUFileCache(capacity_bytes=100)
        cache.insert(1, 40)
        cache.insert(2, 40)
        cache.access(1)  # 2 becomes LRU
        evicted = cache.insert(3, 40)
        assert evicted == [2]
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_multiple_evictions_for_large_insert(self):
        cache = LRUFileCache(capacity_bytes=100)
        cache.insert(1, 30)
        cache.insert(2, 30)
        cache.insert(3, 30)
        evicted = cache.insert(4, 90)
        assert evicted == [1, 2, 3]
        assert len(cache) == 1 and 4 in cache

    def test_oversized_file_not_admitted(self):
        cache = LRUFileCache(capacity_bytes=100)
        assert cache.insert(1, 200) == []
        assert 1 not in cache

    def test_reinsert_updates_size_and_recency(self):
        cache = LRUFileCache(capacity_bytes=100)
        cache.insert(1, 40)
        cache.insert(2, 40)
        cache.insert(1, 60)  # refresh + grow
        assert cache.used_bytes == 100
        assert cache.insert(3, 40) == [2]  # 1 was refreshed, so 2 is LRU

    def test_unbounded_cache_never_evicts(self):
        cache = LRUFileCache()
        for i in range(100):
            assert cache.insert(i, 10**9) == []
        assert len(cache) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUFileCache(capacity_bytes=-1)
        with pytest.raises(ValueError):
            LRUFileCache().insert(1, -1)


@settings(max_examples=60)
@given(
    st.integers(min_value=10, max_value=500),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=100)),
        min_size=1,
        max_size=100,
    ),
)
def test_capacity_invariant_and_hit_consistency(capacity, operations):
    """Used bytes never exceed capacity; `in` matches access() hits."""
    cache = LRUFileCache(capacity_bytes=capacity)
    for file_id, size in operations:
        expected_hit = file_id in cache
        assert cache.access(file_id) == expected_hit
        if not expected_hit:
            cache.insert(file_id, size)
        assert cache.used_bytes <= capacity
