"""A Berkeley-web-trace-like workload (substitution, see DESIGN.md §2).

§VI-D replays "a section of the web trace collection" from the Berkeley
file-system workload study (UCB/CSD-98-1029, [25]), with two
normalisations the authors themselves applied: file size forced to 10 MB
and the inter-arrival delay re-spaced to bound server queuing.  The raw
1998 trace is not redistributable and unavailable offline, so this module
generates a synthetic trace with the property the paper actually relies
on: "The web trace appeared to be skewed towards a smaller subset of
data" -- skewed enough that prefetching 70 files captures essentially all
requests and the data disks sleep for the whole run.

Web-server file popularity is classically Zipf-distributed with exponent
near 1 (Breslau et al., INFOCOM'99); we use a Zipf draw over a compact
working set, shuffled so hot files are not correlated with catalog order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.traces.model import FileSpec, Trace

MB = 1024 * 1024


@dataclass
class BerkeleyWebWorkload:
    """Parameters of the web-trace-like generator.

    Defaults match the paper's Fig. 6 setup: 1000-file catalog, 10 MB
    files, the same request volume as the synthetic runs, and a working
    set well under the 70-file default prefetch window.
    """

    n_files: int = 1000
    n_requests: int = 1000
    data_size_bytes: int = 10 * MB
    inter_arrival_s: float = 0.700
    #: Number of distinct files receiving essentially all accesses.
    working_set_files: int = 50
    #: Zipf exponent over the working set (>1 for a proper distribution).
    zipf_alpha: float = 1.4

    def __post_init__(self) -> None:
        if not self.n_files > 0:
            raise ValueError(f"n_files must be > 0, got {self.n_files!r}")
        if not self.n_requests >= 0:
            raise ValueError(f"n_requests must be >= 0")
        if not 0 < self.working_set_files <= self.n_files:
            raise ValueError(
                f"working_set_files must be in (0, n_files], got "
                f"{self.working_set_files!r}"
            )
        if not 1.0 < self.zipf_alpha < np.inf:
            raise ValueError(f"zipf_alpha must be finite and > 1, got {self.zipf_alpha!r}")
        if not 0 <= self.inter_arrival_s < np.inf:
            raise ValueError("inter_arrival_s must be finite and >= 0")
        if not self.data_size_bytes >= 0:
            raise ValueError("data_size_bytes must be >= 0")


def generate_berkeley_like_trace(
    workload: Optional[BerkeleyWebWorkload] = None,
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Generate the web-trace stand-in used for the Fig. 6 reproduction."""
    workload = workload if workload is not None else BerkeleyWebWorkload()
    rng = rng if rng is not None else np.random.default_rng(0)

    files = [
        FileSpec(file_id=i, size_bytes=workload.data_size_bytes)
        for i in range(workload.n_files)
    ]

    # Zipf ranks folded into the working set, then mapped onto a random
    # subset of the catalog so hotness is uncorrelated with file_id.
    ranks = (rng.zipf(a=workload.zipf_alpha, size=workload.n_requests) - 1) % (
        workload.working_set_files
    )
    hot_set = rng.permutation(workload.n_files)[: workload.working_set_files]
    file_ids = hot_set[ranks]

    times = np.arange(workload.n_requests) * workload.inter_arrival_s

    meta = {
        "generator": "berkeley-web-like",
        "n_files": workload.n_files,
        "n_requests": workload.n_requests,
        "data_size_bytes": workload.data_size_bytes,
        "inter_arrival_s": workload.inter_arrival_s,
        "working_set_files": workload.working_set_files,
        "zipf_alpha": workload.zipf_alpha,
        "substitution": (
            "synthetic stand-in for UCB/CSD-98-1029 web trace; see DESIGN.md"
        ),
    }
    return Trace(files, meta=meta, times=times, file_ids=file_ids)
