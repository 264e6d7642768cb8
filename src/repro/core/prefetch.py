"""Energy-aware prefetch planning (§III-C, §IV-B; the PRE-BUD lineage).

The prefetcher "tries to move popular data into a set of buffer disks
without affecting the data layout of any of the data disks": it selects
the K most popular files (from the access log), maps them to the storage
nodes that own them, and each node copies its share from the data disks
into its buffer disk -- copies only, never migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class PrefetchPlan:
    """Which files each storage node should copy into its buffer disk.

    Per-node lists preserve descending popularity: if buffer capacity
    runs out, the hottest files were copied first.
    """

    per_node: Mapping[str, Tuple[int, ...]]
    requested_k: int

    def files_for(self, node: str) -> Tuple[int, ...]:
        """The prefetch list for one node (empty if none)."""
        return self.per_node.get(node, ())


def plan_prefetch(
    ranking: Sequence[int],
    k: int,
    placement: Mapping[int, str],
) -> PrefetchPlan:
    """Split the global top-K prefetch set by owning storage node.

    Parameters
    ----------
    ranking:
        File ids in descending popularity (total order over the catalog).
    k:
        Number of files to prefetch (Table II: 10..100 of 1000).
    placement:
        file -> node map from :func:`repro.core.placement.place_round_robin`.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    per_node: Dict[str, List[int]] = {}
    for file_id in ranking[:k]:
        node = placement.get(file_id)
        if node is None:
            raise KeyError(f"file {file_id} missing from placement")
        per_node.setdefault(node, []).append(file_id)
    return PrefetchPlan(
        per_node={node: tuple(files) for node, files in per_node.items()},
        requested_k=k,
    )


@dataclass
class PrefetchStats:
    """Measured outcome of the prefetch phase (for RunResult)."""

    files_requested: int = 0
    files_copied: int = 0
    bytes_copied: int = 0
    duration_s: float = 0.0
    skipped_capacity: int = 0
