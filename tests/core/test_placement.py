"""Unit and property tests for popularity round-robin placement (§III-B)."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.placement import creation_order, place_round_robin


class TestPlaceRoundRobin:
    def test_rank_order_cycles_nodes(self):
        """Most popular -> node 1, second -> node 2, ... (§III-B)."""
        ranking = [50, 20, 30, 10]  # descending popularity
        placement = place_round_robin(ranking, ["n1", "n2"])
        assert placement == {50: "n1", 20: "n2", 30: "n1", 10: "n2"}

    def test_single_node_gets_everything(self):
        placement = place_round_robin([1, 2, 3], ["only"])
        assert set(placement.values()) == {"only"}

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError):
            place_round_robin([1], [])

    def test_duplicate_ranking_rejected(self):
        with pytest.raises(ValueError):
            place_round_robin([1, 1], ["a"])

    def test_file_counts_balanced(self):
        placement = place_round_robin(list(range(10)), ["a", "b", "c"])
        counts = {}
        for node in placement.values():
            counts[node] = counts.get(node, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1


class TestCreationOrder:
    def test_per_node_order_is_descending_popularity(self):
        ranking = [9, 7, 5, 3]
        placement = place_round_robin(ranking, ["a", "b"])
        order = creation_order(ranking, placement)
        assert order == {"a": [9, 5], "b": [7, 3]}


class TestPlaceConcentrate:
    def test_contiguous_blocks(self):
        from repro.core.placement import place_concentrate

        placement = place_concentrate([9, 8, 7, 6], ["a", "b"])
        assert placement == {9: "a", 8: "a", 7: "b", 6: "b"}

    def test_remainder_lands_on_last_node(self):
        from repro.core.placement import place_concentrate

        placement = place_concentrate([1, 2, 3, 4, 5], ["a", "b"])
        assert list(placement.values()).count("a") == 3

    def test_validation(self):
        from repro.core.placement import place_concentrate

        with pytest.raises(ValueError):
            place_concentrate([1], [])
        with pytest.raises(ValueError):
            place_concentrate([1, 1], ["a"])


class TestPlaceWeighted:
    def test_counts_follow_weights(self):
        from repro.core.placement import place_weighted

        placement = place_weighted(
            list(range(100)), ["fast", "slow"], {"fast": 3.0, "slow": 1.0}
        )
        counts = {"fast": 0, "slow": 0}
        for node in placement.values():
            counts[node] += 1
        assert counts["fast"] == 75
        assert counts["slow"] == 25

    def test_hot_files_interleave_not_block(self):
        """SWRR must interleave ranks, not give the fast node a prefix."""
        from repro.core.placement import place_weighted

        placement = place_weighted(
            list(range(8)), ["fast", "slow"], {"fast": 1.0, "slow": 1.0}
        )
        first_four = [placement[i] for i in range(4)]
        assert set(first_four) == {"fast", "slow"}

    def test_equal_weights_equal_split(self):
        from repro.core.placement import place_weighted

        placement = place_weighted(
            list(range(10)), ["a", "b"], {"a": 1.0, "b": 1.0}
        )
        assert list(placement.values()).count("a") == 5

    def test_validation(self):
        from repro.core.placement import place_weighted

        with pytest.raises(ValueError):
            place_weighted([1], [], {})
        with pytest.raises(ValueError):
            place_weighted([1], ["a"], {"a": 0.0})
        with pytest.raises(ValueError):
            place_weighted([1, 1], ["a"], {"a": 1.0})

    def test_deterministic(self):
        from repro.core.placement import place_weighted

        args = (list(range(50)), ["a", "b", "c"], {"a": 5.0, "b": 2.0, "c": 1.0})
        assert place_weighted(*args) == place_weighted(*args)


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300, unique=True),
)
def test_placement_covers_all_files_and_balances(n_nodes, ranking):
    nodes = [f"n{i}" for i in range(n_nodes)]
    placement = place_round_robin(ranking, nodes)
    # Total cover, no invention.
    assert set(placement) == set(ranking)
    assert set(placement.values()) <= set(nodes)
    # File-count balance within 1.
    counts = {n: 0 for n in nodes}
    for node in placement.values():
        counts[node] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=100))
def test_zipf_like_load_is_balanced_by_popularity_round_robin(n_nodes, n_files):
    """The §III-B claim: placing by popularity rank round-robin balances
    *request* load even under skewed popularity."""
    nodes = [f"n{i}" for i in range(n_nodes)]
    # Zipf-ish counts: file ranked r gets ~N/(r+1) accesses.
    ranking = list(range(n_files))
    counts = {fid: 1000 // (rank + 1) for rank, fid in enumerate(ranking)}
    placement = place_round_robin(ranking, nodes)
    load = {node: 0 for node in nodes}
    for fid, count in counts.items():
        load[placement[fid]] += count
    # The hottest file dominates, so perfect balance is impossible; but
    # round-robin keeps every node within the hottest file's share of the
    # mean.
    if n_files >= n_nodes:
        imbalance = max(load.values()) / (sum(load.values()) / n_nodes)
        assert imbalance <= 1.0 + n_nodes * counts[ranking[0]] / sum(counts.values())
