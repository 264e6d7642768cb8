"""Unit tests for prefetch planning (§III-C, §IV-B)."""

import pytest

from repro.core.prefetch import plan_prefetch, PrefetchStats


def placement_for(ranking, nodes):
    from repro.core.placement import place_round_robin

    return place_round_robin(ranking, nodes)


class TestPlanPrefetch:
    def test_top_k_split_by_node(self):
        ranking = [5, 3, 8, 1, 9, 2]
        placement = placement_for(ranking, ["a", "b"])
        plan = plan_prefetch(ranking, 4, placement)
        assert plan.files_for("a") == (5, 8)
        assert plan.files_for("b") == (3, 1)
        assert plan.total_files == 4
        assert plan.requested_k == 4

    def test_k_zero_is_empty(self):
        plan = plan_prefetch([1, 2], 0, {1: "a", 2: "a"})
        assert plan.total_files == 0
        assert plan.files_for("a") == ()

    def test_k_larger_than_catalog(self):
        plan = plan_prefetch([1, 2], 10, {1: "a", 2: "b"})
        assert plan.total_files == 2

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            plan_prefetch([1], -1, {1: "a"})

    def test_missing_placement_raises(self):
        with pytest.raises(KeyError):
            plan_prefetch([1, 2], 2, {1: "a"})

    def test_per_node_order_preserves_popularity(self):
        ranking = [10, 20, 30, 40, 50, 60]
        placement = placement_for(ranking, ["a", "b", "c"])
        plan = plan_prefetch(ranking, 6, placement)
        assert plan.files_for("a") == (10, 40)  # rank order within node


class TestPrefetchStats:
    def test_merge_accumulates(self):
        total = PrefetchStats()
        a = PrefetchStats(files_requested=3, files_copied=2, bytes_copied=200, duration_s=5.0)
        b = PrefetchStats(files_requested=1, files_copied=1, bytes_copied=50, duration_s=9.0, skipped_capacity=1)
        total.merge(a)
        total.merge(b)
        assert total.files_requested == 4
        assert total.files_copied == 3
        assert total.bytes_copied == 250
        assert total.duration_s == 9.0  # max, not sum (nodes run in parallel)
        assert total.skipped_capacity == 1
