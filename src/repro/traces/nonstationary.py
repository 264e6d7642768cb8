"""Nonstationary workloads: popularity that drifts over time.

The paper's synthetic traces are stationary, which makes one-shot
prefetching (popularity computed once, before the run) an oracle.  Real
workloads drift -- yesterday's hot content cools.  This generator moves
the Poisson-MU hotspot across the catalog at a constant rate, so a
static top-K prefetch decays over the run while EEVFS's *dynamic*
re-prefetching (``EEVFSConfig.popularity_window_s``, which starts the
replan loop of :mod:`repro.online.replan` in oracle mode) can track it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.traces.model import FileSpec, Trace

MB = 1024 * 1024


@dataclass
class DriftingWorkload:
    """Parameters for :func:`generate_drifting_trace`.

    ``drift_files_per_s`` shifts the popularity hotspot's centre through
    the catalog; at the default 0.5 files/s the hot set moves by 350
    files over the paper's 700 s trace -- far past a static 70-file
    prefetch window.
    """

    n_files: int = 1000
    n_requests: int = 1000
    data_size_bytes: int = 10 * MB
    mu: float = 100.0
    inter_arrival_s: float = 0.700
    drift_files_per_s: float = 0.5

    def __post_init__(self) -> None:
        if not self.n_files > 0:
            raise ValueError(f"n_files must be > 0, got {self.n_files!r}")
        if not self.n_requests >= 0:
            raise ValueError("n_requests must be >= 0")
        if not self.data_size_bytes >= 0:
            raise ValueError("data_size_bytes must be >= 0")
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu!r}")
        if not 0 <= self.inter_arrival_s < np.inf:
            raise ValueError("inter_arrival_s must be finite and >= 0")
        if not 0 <= self.drift_files_per_s < np.inf:
            raise ValueError("drift_files_per_s must be finite and >= 0")


def generate_drifting_trace(
    workload: Optional[DriftingWorkload] = None,
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Generate a trace whose hot set moves through the catalog."""
    workload = workload if workload is not None else DriftingWorkload()
    rng = rng if rng is not None else np.random.default_rng(0)
    files = [
        FileSpec(file_id=i, size_bytes=workload.data_size_bytes)
        for i in range(workload.n_files)
    ]
    times = np.arange(workload.n_requests) * workload.inter_arrival_s
    base = rng.poisson(lam=workload.mu, size=workload.n_requests)
    offsets = np.floor(times * workload.drift_files_per_s).astype(np.int64)
    file_ids = (base + offsets) % workload.n_files
    meta = {
        "generator": "drifting",
        "n_files": workload.n_files,
        "n_requests": workload.n_requests,
        "mu": workload.mu,
        "inter_arrival_s": workload.inter_arrival_s,
        "drift_files_per_s": workload.drift_files_per_s,
    }
    return Trace(files, meta=meta, times=times, file_ids=file_ids)


def hot_set_displacement(workload: DriftingWorkload) -> float:
    """Files the hotspot centre moves over the whole trace (diagnostic)."""
    duration = max(0, workload.n_requests - 1) * workload.inter_arrival_s
    return duration * workload.drift_files_per_s
