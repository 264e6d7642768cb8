"""Replica-placement policy invariants."""

import pytest

from repro.replication import plan_replicas, REPLICATION_POLICIES

NODES = ["node1", "node2", "node3", "node4"]


def round_robin_placement(ranking, nodes=NODES):
    return {fid: nodes[i % len(nodes)] for i, fid in enumerate(ranking)}


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown replication policy"):
            plan_replicas([1], {1: "node1"}, NODES, 2, policy="raid6")

    def test_factor_below_one(self):
        with pytest.raises(ValueError):
            plan_replicas([1], {1: "node1"}, NODES, 0)

    def test_factor_above_node_count(self):
        with pytest.raises(ValueError, match="exceeds node count"):
            plan_replicas([1], {1: "node1"}, NODES, 5)


class TestNoReplication:
    def test_factor_one_means_empty_sets(self):
        ranking = list(range(10))
        placement = round_robin_placement(ranking)
        replicas = plan_replicas(ranking, placement, NODES, 1, policy="round_robin")
        assert all(r == () for r in replicas.values())


@pytest.mark.parametrize("policy", ["round_robin", "popularity"])
@pytest.mark.parametrize("factor", [2, 3, 4])
class TestInvariants:
    """Hold for every replicating policy and factor."""

    def test_exact_replica_count(self, policy, factor):
        ranking = list(range(40))
        placement = round_robin_placement(ranking)
        replicas = plan_replicas(ranking, placement, NODES, factor, policy=policy)
        assert set(replicas) == set(ranking)
        assert all(len(r) == factor - 1 for r in replicas.values())

    def test_never_the_primary_and_never_duplicated(self, policy, factor):
        ranking = list(range(40))
        placement = round_robin_placement(ranking)
        replicas = plan_replicas(ranking, placement, NODES, factor, policy=policy)
        for fid, holders in replicas.items():
            assert placement[fid] not in holders
            assert len(set(holders)) == len(holders)
            assert all(node in NODES for node in holders)

    def test_balanced_when_primaries_balanced(self, policy, factor):
        """Round-robin primaries + any policy => even total holder load."""
        ranking = list(range(40))
        placement = round_robin_placement(ranking)
        replicas = plan_replicas(ranking, placement, NODES, factor, policy=policy)
        counts = {node: 0 for node in NODES}
        for fid, primary in placement.items():
            for node in (primary, *replicas.get(fid, ())):
                counts[node] += 1
        assert max(counts.values()) - min(counts.values()) <= factor


class TestPopularitySpread:
    def test_hot_replicas_spread_across_nodes(self):
        """The k hottest files' replicas must not pile onto one node."""
        ranking = list(range(12))
        placement = round_robin_placement(ranking)
        replicas = plan_replicas(ranking, placement, NODES, 2, policy="popularity")
        hot_holders = [replicas[fid][0] for fid in ranking[:4]]
        assert len(set(hot_holders)) == len(NODES)


def test_policy_tuple_is_stable():
    # config validation and the CLI both read this tuple.
    assert REPLICATION_POLICIES == ("round_robin", "popularity")
