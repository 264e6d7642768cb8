"""Shared fixtures for the benchmark harness.

Figures 3, 4 and 5 plot the *same* experiments three ways, so the
Table-II sweeps run once per session (inside the first benchmark that
needs them) and are shared via :data:`SWEEP_CACHE`.  Benchmarks that hit
the cache report near-zero times -- that is honest: they only assemble a
figure from existing runs, as the paper did.

``EEVFS_BENCH_REQUESTS`` overrides the trace length (default 1000, the
paper's scale).
"""

import os

import pytest

from repro.experiments.study import compared, group, run_study
from repro.experiments.sweeps import sweep_study, SWEEPS

#: Paper-scale request count unless overridden.
N_REQUESTS = int(os.environ.get("EEVFS_BENCH_REQUESTS", "1000"))

_SWEEP_CACHE = {}


def sweep_cached(name: str):
    """Run (once) and cache one Table-II sweep at benchmark scale, as
    ``{value: PairedComparison}``."""
    if name not in _SWEEP_CACHE:
        study = sweep_study(sweeps={name: SWEEPS[name][1]}, n_requests=N_REQUESTS)
        _SWEEP_CACHE[name] = compared(group(run_study(study), name))
    return _SWEEP_CACHE[name]


@pytest.fixture
def bench_requests():
    return N_REQUESTS


def series(points, getter):
    """Extract one column from a sweep's comparisons."""
    return [getter(c) for c in points.values()]
