"""Diurnal workloads: day/night load cycles.

Data-centre traffic is periodic; energy management earns most of its
keep in the troughs.  This generator produces a non-homogeneous Poisson
arrival process (sinusoidal intensity over a configurable period) via
thinning, with the paper's Poisson-MU file popularity on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.traces.model import FileSpec, Trace

MB = 1024 * 1024


@dataclass
class DiurnalWorkload:
    """Parameters for :func:`generate_diurnal_trace`.

    ``peak_rate_hz`` / ``trough_rate_hz`` bound the sinusoidal arrival
    intensity; one full cycle spans ``period_s``.  The default compresses
    a day into 20 minutes so experiments stay laptop-sized while keeping
    a ~5x peak-to-trough swing.
    """

    n_files: int = 1000
    n_requests: int = 1000
    data_size_bytes: int = 10 * MB
    mu: float = 1000.0
    peak_rate_hz: float = 2.5
    trough_rate_hz: float = 0.5
    period_s: float = 1200.0

    def __post_init__(self) -> None:
        if not self.n_files > 0:
            raise ValueError(f"n_files must be > 0, got {self.n_files!r}")
        if not self.n_requests >= 0:
            raise ValueError("n_requests must be >= 0")
        if not self.data_size_bytes >= 0:
            raise ValueError("data_size_bytes must be >= 0")
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu!r}")
        if not 0 < self.trough_rate_hz <= self.peak_rate_hz < np.inf:
            raise ValueError("need 0 < trough_rate_hz <= peak_rate_hz < inf")
        if not 0 < self.period_s < np.inf:
            raise ValueError("period_s must be finite and > 0")

    def rate_at(self, t_s: float) -> float:
        """Instantaneous arrival intensity (Hz); peak at t=0 mod period."""
        mid = (self.peak_rate_hz + self.trough_rate_hz) / 2.0
        amplitude = (self.peak_rate_hz - self.trough_rate_hz) / 2.0
        return mid + amplitude * np.cos(2.0 * np.pi * t_s / self.period_s)


def generate_diurnal_trace(
    workload: Optional[DiurnalWorkload] = None,
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Generate arrivals by thinning a homogeneous Poisson process."""
    workload = workload if workload is not None else DiurnalWorkload()
    rng = rng if rng is not None else np.random.default_rng(0)
    files = [
        FileSpec(file_id=i, size_bytes=workload.data_size_bytes)
        for i in range(workload.n_files)
    ]
    times: List[float] = []
    t = 0.0
    peak = workload.peak_rate_hz
    while len(times) < workload.n_requests:
        t += rng.exponential(1.0 / peak)
        if rng.random() <= workload.rate_at(t) / peak:
            times.append(t)
    file_ids = rng.poisson(lam=workload.mu, size=workload.n_requests) % workload.n_files
    meta = {
        "generator": "diurnal",
        "n_files": workload.n_files,
        "n_requests": workload.n_requests,
        "mu": workload.mu,
        "peak_rate_hz": workload.peak_rate_hz,
        "trough_rate_hz": workload.trough_rate_hz,
        "period_s": workload.period_s,
    }
    return Trace(files, meta=meta, times=times, file_ids=file_ids)
