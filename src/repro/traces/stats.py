"""Workload statistics: popularity, skew, working set.

These drive both the placement/prefetch policies (via the access log) and
the analysis in EXPERIMENTS.md (e.g. verifying that the Berkeley-like
trace is "skewed towards a smaller subset of data" as §VI-D observed).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

import numpy as np

from repro.traces.model import Trace

__all__ = [
    "access_counts",
    "coverage_of_top_k",
    "gini_coefficient",
    "histogram_of_counts",
    "inter_arrival_times",
    "mean_reuse_distance",
    "popularity_ranking",
    "reuse_distances",
    "summarize",
    "working_set_size",
]


def access_counts(trace: Trace) -> Counter:
    """Access count per file id (files with zero accesses are absent)."""
    return Counter(trace.file_ids)


def popularity_ranking(trace: Trace) -> List[int]:
    """All catalog file ids, most-accessed first; ties and never-accessed
    files order by ascending id.  Matches the storage server's ranking."""
    counts = access_counts(trace)
    return sorted(
        (f.file_id for f in trace.files),
        key=lambda fid: (-counts.get(fid, 0), fid),
    )


def working_set_size(trace: Trace) -> int:
    """Number of distinct files accessed."""
    return len(trace.accessed_file_ids())


def coverage_of_top_k(trace: Trace, k: int) -> float:
    """Fraction of requests hitting the *k* most popular files.

    This is the quantity that decides whether a prefetch window of size
    ``k`` lets the data disks sleep (Fig. 3d's lever).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    if not len(trace):
        return 0.0
    counts = access_counts(trace)
    top = sorted(counts.values(), reverse=True)[:k]
    return sum(top) / len(trace)


def inter_arrival_times(trace: Trace) -> np.ndarray:
    """Gaps between consecutive requests (empty for < 2 requests)."""
    times = np.array(trace.times, dtype=np.float64)
    return np.diff(times) if len(times) >= 2 else np.array([])


def gini_coefficient(trace: Trace) -> float:
    """Gini coefficient of per-file access counts over the whole catalog.

    0 = perfectly uniform popularity; ->1 = all accesses on one file.
    """
    counts = access_counts(trace)
    values = np.array(
        [counts.get(f.file_id, 0) for f in trace.files], dtype=np.float64
    )
    if values.sum() == 0:
        return 0.0
    values.sort()
    n = len(values)
    index = np.arange(1, n + 1)
    return float((2.0 * (index * values).sum() / (n * values.sum())) - (n + 1.0) / n)


def reuse_distances(trace: Trace) -> np.ndarray:
    """Stack (reuse) distances: distinct files touched between successive
    accesses to the same file.

    Low distances mean a small cache captures the workload -- the
    temporal-locality view of what :func:`coverage_of_top_k` measures
    spatially.  First accesses contribute no distance.
    """
    last_position: Dict[int, int] = {}
    stack: List[int] = []  # most recent at the end
    distances: List[int] = []
    for fid in trace.file_ids:
        if fid in last_position:
            index = stack.index(fid)
            distances.append(len(stack) - 1 - index)
            stack.pop(index)
        stack.append(fid)
        last_position[fid] = True
    return np.array(distances, dtype=np.int64)


def mean_reuse_distance(trace: Trace) -> float:
    """Mean stack distance (NaN when no file is ever re-accessed)."""
    distances = reuse_distances(trace)
    return float(distances.mean()) if distances.size else float("nan")


def summarize(trace: Trace) -> Dict[str, object]:
    """One-call summary used by the CLI and EXPERIMENTS.md tables."""
    gaps = inter_arrival_times(trace)
    return {
        "n_files": trace.n_files,
        "n_requests": trace.n_requests,
        "duration_s": trace.duration_s,
        "total_bytes": trace.total_bytes,
        "working_set": working_set_size(trace),
        "coverage_top_10": coverage_of_top_k(trace, 10),
        "coverage_top_70": coverage_of_top_k(trace, 70),
        "gini": gini_coefficient(trace),
        "mean_inter_arrival_s": float(gaps.mean()) if gaps.size else 0.0,
    }


def histogram_of_counts(trace: Trace, bins: Sequence[int]) -> Dict[str, int]:
    """How many files fall into each access-count bin (diagnostics)."""
    counts = access_counts(trace)
    per_file = [counts.get(f.file_id, 0) for f in trace.files]
    edges = list(bins)
    if edges != sorted(edges) or len(edges) < 2:
        raise ValueError("bins must be a sorted sequence of at least 2 edges")
    labels = [f"[{edges[i]},{edges[i+1]})" for i in range(len(edges) - 1)]
    result = {label: 0 for label in labels}
    for value in per_file:
        for i in range(len(edges) - 1):
            if edges[i] <= value < edges[i + 1]:
                result[labels[i]] += 1
                break
    return result
