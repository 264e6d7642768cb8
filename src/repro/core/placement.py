"""Popularity round-robin data placement (§III-B).

"If the storage server is given previous knowledge about the popularity
and access patterns of the data blocks, the server distributes the data
blocks to storage nodes in a round-robin fashion based on file
popularity" -- the most popular file goes to storage node 1, the second
most popular to storage node 2, and so on.  Because consecutive ranks
land on different nodes, request load (which concentrates on the hottest
files) spreads evenly: placement *is* the load-balancing policy.

The same trick repeats inside each node across its data disks; that half
lives in :meth:`repro.core.metadata.NodeMetadata.create`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def place_round_robin(ranking: Sequence[int], nodes: Sequence[str]) -> Dict[int, str]:
    """Map each file to a storage node, round-robin by popularity rank.

    Parameters
    ----------
    ranking:
        File ids in descending popularity order (a total order over the
        catalog, from :func:`repro.core.popularity.ranked`).
    nodes:
        Storage node names, in server order.
    """
    if not nodes:
        raise ValueError("need at least one storage node")
    if len(set(ranking)) != len(ranking):
        raise ValueError("ranking contains duplicate file ids")
    return {file_id: nodes[rank % len(nodes)] for rank, file_id in enumerate(ranking)}


def place_concentrate(ranking: Sequence[int], nodes: Sequence[str]) -> Dict[int, str]:
    """PDC-style placement [15]: pack by popularity.

    "The goal of PDC is to load the first disk with the most popular
    data, the second disk with the second most popular data, and continue
    this process for the remaining disks" -- at cluster scale, the first
    storage node takes the hottest contiguous block of the ranking, the
    second node the next block, and so on.  Cold nodes then idle for long
    stretches (good for sleeping) while hot nodes concentrate the load
    (bad for balance) -- exactly the trade-off §II criticises.
    """
    if not nodes:
        raise ValueError("need at least one storage node")
    if len(set(ranking)) != len(ranking):
        raise ValueError("ranking contains duplicate file ids")
    per_node = -(-len(ranking) // len(nodes))  # ceil division
    return {
        file_id: nodes[min(rank // per_node, len(nodes) - 1)]
        for rank, file_id in enumerate(ranking)
    }


def place_weighted(
    ranking: Sequence[int],
    nodes: Sequence[str],
    weights: Mapping[str, float],
) -> Dict[int, str]:
    """Heterogeneity-aware placement: hot files favour fast nodes.

    Extension beyond the paper: the Table-I testbed mixes gigabit and
    100 Mb/s nodes, so the plain §III-B round-robin sends half the hot
    traffic through slow NICs.  Smooth weighted round-robin (each node
    accumulates credit proportional to its weight; the richest node takes
    the next file) keeps per-node file counts near the weight ratio while
    interleaving ranks -- the load-balance property of §III-B, biased
    toward capable hardware.
    """
    if not nodes:
        raise ValueError("need at least one storage node")
    if len(set(ranking)) != len(ranking):
        raise ValueError("ranking contains duplicate file ids")
    for node in nodes:
        if weights.get(node, 0) <= 0:
            raise ValueError(f"node {node!r} needs a positive weight")
    total = sum(weights[node] for node in nodes)
    credit = {node: 0.0 for node in nodes}
    placement: Dict[int, str] = {}
    for file_id in ranking:
        for node in nodes:
            credit[node] += weights[node]
        best = max(nodes, key=lambda n: credit[n])
        credit[best] -= total
        placement[file_id] = best
    return placement


def concentrate_disk_assignment(local_index: int, local_count: int, n_disks: int) -> int:
    """Within-node PDC packing: the hottest local files fill disk 0."""
    if local_count <= 0 or n_disks <= 0:
        raise ValueError("local_count and n_disks must be positive")
    if not 0 <= local_index < local_count:
        raise ValueError(f"local_index {local_index} outside [0, {local_count})")
    return min(local_index * n_disks // local_count, n_disks - 1)


def creation_order(ranking: Sequence[int], placement: Mapping[int, str]) -> Dict[str, List[int]]:
    """Per-node file-creation order (descending popularity).

    The server issues create requests most-popular-first, so each node
    sees *its* files in descending popularity and can round-robin them
    across its local disks (§III-B's guarantee: "the first create file
    request a storage node sees contains a file that is guaranteed to be
    more popular than the file contained in the second").
    """
    order: Dict[str, List[int]] = {}
    for file_id in ranking:
        order.setdefault(placement[file_id], []).append(file_id)
    return order
