"""The Table-II synthetic workload generator.

§V-B defines the synthetic traces through five knobs; the three that shape
the trace itself are:

* **Data size** -- mean file size, 1..50 MB.
* **MU** -- "the MU value for the Poisson distribution of file requests
  that are fed into the storage server.  This value was varied from 1 to
  1000 and with 1 skewing the file accesses patterns to a small number of
  files and 1000 spreading out the distribution of files accessed."
  We therefore draw each request's *file index* as ``Poisson(MU) mod
  n_files``: MU=1 concentrates accesses on ~3 files, MU=1000 spreads them
  over roughly ±3*sqrt(1000) ≈ 190 files.
* **Inter-arrival delay** -- "we have added 0 to 1000 ms of inter-arrival
  delay between requests": a *constant* spacing, which we reproduce
  exactly (an exponential option exists for sensitivity studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.traces.model import make_catalog, Trace

MB = 1024 * 1024

#: Paper defaults (§V-B / §VI): 1000 files, 10 MB, MU=1000, 700 ms.
DEFAULT_N_FILES = 1000
DEFAULT_N_REQUESTS = 1000
DEFAULT_DATA_SIZE_BYTES = 10 * MB
DEFAULT_MU = 1000.0
DEFAULT_INTER_ARRIVAL_S = 0.700


@dataclass
class SyntheticWorkload:
    """Parameter bundle for :func:`generate_synthetic_trace`.

    Attributes mirror Table II.  ``size_spread`` optionally turns the
    per-file size from a constant into a lognormal with the given relative
    sigma (0 keeps the paper's fixed-size behaviour).
    """

    n_files: int = DEFAULT_N_FILES
    n_requests: int = DEFAULT_N_REQUESTS
    data_size_bytes: int = DEFAULT_DATA_SIZE_BYTES
    mu: float = DEFAULT_MU
    inter_arrival_s: float = DEFAULT_INTER_ARRIVAL_S
    arrival_process: str = "constant"  # or "exponential"
    size_spread: float = 0.0
    write_fraction: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # `not x >= 0` also rejects NaN; a mean or a gap must be finite too.
        if not self.n_files > 0:
            raise ValueError(f"n_files must be > 0, got {self.n_files!r}")
        if not self.n_requests >= 0:
            raise ValueError(f"n_requests must be >= 0, got {self.n_requests!r}")
        if not self.data_size_bytes >= 0:
            raise ValueError(f"data_size_bytes must be >= 0")
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu!r}")
        if not 0 <= self.inter_arrival_s < np.inf:
            raise ValueError(f"inter_arrival_s must be finite and >= 0")
        if self.arrival_process not in ("constant", "exponential"):
            raise ValueError(f"unknown arrival process: {self.arrival_process!r}")
        if not self.size_spread >= 0:
            raise ValueError(f"size_spread must be >= 0")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(f"write_fraction must be in [0, 1]")


def _sample_file_ids(
    rng: np.random.Generator, mu: float, n_files: int, n_requests: int
) -> np.ndarray:
    """Draw file indices as Poisson(MU) folded into the catalog."""
    return rng.poisson(lam=mu, size=n_requests) % n_files


def _sample_sizes(
    rng: np.random.Generator, mean_bytes: int, spread: float, n_files: int
) -> np.ndarray:
    if spread == 0.0 or mean_bytes == 0:
        return np.full(n_files, mean_bytes, dtype=np.int64)
    # Lognormal with the requested relative sigma, mean preserved.
    sigma = np.sqrt(np.log1p(spread**2))
    mu_log = np.log(mean_bytes) - sigma**2 / 2.0
    sizes = rng.lognormal(mean=mu_log, sigma=sigma, size=n_files)
    return np.maximum(1, sizes.round()).astype(np.int64)


def generate_synthetic_trace(
    workload: SyntheticWorkload,
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Generate a :class:`Trace` per the Table-II parameters.

    Deterministic given *rng* (defaults to a fixed-seed generator so
    paired PF/NPF experiments replay identical workloads).
    """
    rng = rng if rng is not None else np.random.default_rng(0)

    sizes = _sample_sizes(
        rng, workload.data_size_bytes, workload.size_spread, workload.n_files
    )
    files = make_catalog(workload.n_files, sizes.tolist())

    file_ids = _sample_file_ids(rng, workload.mu, workload.n_files, workload.n_requests)

    if workload.arrival_process == "constant":
        times = np.arange(workload.n_requests) * workload.inter_arrival_s
    else:
        if workload.inter_arrival_s == 0.0:
            times = np.zeros(workload.n_requests)
        else:
            gaps = rng.exponential(workload.inter_arrival_s, size=workload.n_requests)
            times = np.concatenate(([0.0], np.cumsum(gaps[:-1])))

    if workload.write_fraction > 0.0:
        is_write = rng.random(workload.n_requests) < workload.write_fraction
    else:
        is_write = np.zeros(workload.n_requests, dtype=bool)

    meta = {
        "generator": "synthetic",
        "n_files": workload.n_files,
        "n_requests": workload.n_requests,
        "data_size_bytes": workload.data_size_bytes,
        "mu": workload.mu,
        "inter_arrival_s": workload.inter_arrival_s,
        "arrival_process": workload.arrival_process,
        **workload.meta,
    }
    # With no requests the exponential branch still yields the first
    # arrival, at 0; the slice keeps the trace empty.
    return Trace(
        files,
        meta=meta,
        times=times[: workload.n_requests],
        file_ids=file_ids,
        writes=is_write,
    )
