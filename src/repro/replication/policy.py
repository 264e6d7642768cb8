"""Replica placement policies.

EEVFS proper keeps exactly one cross-node copy of every file (plus the
buffer-disk copies prefetching makes of the hot set).  The replication
extension adds *k-way* placement on top of the §III-B primary layout
(factor 1 keeps none: only prefetched files then survive their data
disk, through the buffer-disk copy):

* ``"round_robin"`` -- replica *j* of a file lives on the next *j*-th
  node after its primary (mod the node count).  Deterministic, balanced
  when primaries are balanced.
* ``"popularity"`` -- replicas are dealt round-robin *in descending
  popularity order* over all nodes (skipping holders), the same trick
  §III-B uses for primaries: hot files' replicas spread evenly, so a
  failover under skewed load does not concentrate on one node.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

#: Accepted values of ``EEVFSConfig.replication_policy``.
REPLICATION_POLICIES = ("round_robin", "popularity")


def plan_replicas(
    ranking: Sequence[int],
    placement: Mapping[int, str],
    nodes: Sequence[str],
    factor: int,
    policy: str = "round_robin",
) -> Dict[int, Tuple[str, ...]]:
    """Choose ``factor - 1`` replica nodes for every file.

    Parameters
    ----------
    ranking:
        File ids in descending popularity (the placement order).
    placement:
        file -> primary node (from :mod:`repro.core.placement`).
    nodes:
        Storage node names, in server order.
    factor:
        Total copies wanted per file (primary included); 1 = no replicas.
    policy:
        One of :data:`REPLICATION_POLICIES`.

    Returns file -> tuple of replica nodes (primary excluded).  Every
    replica set is duplicate-free and never contains the primary.
    """
    if policy not in REPLICATION_POLICIES:
        raise ValueError(f"unknown replication policy: {policy!r}")
    if factor < 1:
        raise ValueError(f"replication factor must be >= 1, got {factor!r}")
    if factor > len(nodes):
        raise ValueError(
            f"replication factor {factor} exceeds node count {len(nodes)}"
        )
    if factor == 1:
        return {file_id: () for file_id in ranking}

    node_index = {name: i for i, name in enumerate(nodes)}
    replicas: Dict[int, Tuple[str, ...]] = {}
    if policy == "round_robin":
        for file_id in ranking:
            primary = placement[file_id]
            start = node_index[primary]
            replicas[file_id] = tuple(
                nodes[(start + offset) % len(nodes)]
                for offset in range(1, factor)
            )
    else:  # popularity
        cursor = 0
        for file_id in ranking:
            holders = [placement[file_id]]
            chosen = []
            while len(chosen) < factor - 1:
                candidate = nodes[cursor % len(nodes)]
                cursor += 1
                if candidate not in holders:
                    holders.append(candidate)
                    chosen.append(candidate)
            replicas[file_id] = tuple(chosen)
    return replicas
