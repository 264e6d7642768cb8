"""Unit tests for prefetch planning (§III-C, §IV-B)."""

import pytest

from repro.core.prefetch import plan_prefetch


def total_files(plan):
    return sum(len(files) for files in plan.per_node.values())


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
        assert total_files(plan) == 4
        assert plan.requested_k == 4

    def test_k_zero_is_empty(self):
        plan = plan_prefetch([1, 2], 0, {1: "a", 2: "a"})
        assert total_files(plan) == 0
        assert plan.files_for("a") == ()

    def test_k_larger_than_catalog(self):
        plan = plan_prefetch([1, 2], 10, {1: "a", 2: "b"})
        assert total_files(plan) == 2

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

