"""Workload statistics: popularity, skew, working set.

These drive both the placement/prefetch policies (via the access log) and
the analysis in EXPERIMENTS.md (e.g. verifying that the Berkeley-like
trace is "skewed towards a smaller subset of data" as §VI-D observed).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import numpy as np

from repro.traces.model import Trace

__all__ = [
    "access_counts",
    "coverage_of_top_k",
    "gini_coefficient",
    "inter_arrival_times",
    "popularity_ranking",
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
