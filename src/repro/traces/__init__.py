"""Workload substrate: file catalogs, request traces and generators.

EEVFS is evaluated by replaying file-access traces (§IV-A: "The prototype
implementation uses a trace to replay file access patterns").  This package
provides:

* :mod:`repro.traces.model`     -- :class:`FileSpec`, :class:`TraceRequest`
  and :class:`Trace`, whose requests are typed columns,
* :mod:`repro.traces.synthetic` -- the Table-II synthetic generator
  (Poisson-MU file popularity, fixed inter-arrival delay, data sizes),
* :mod:`repro.traces.berkeley`  -- a Berkeley-web-trace-like generator
  (documented substitution for the 1998 UCB trace used in Fig. 6),
* :mod:`repro.traces.logio`     -- trace file round-tripping,
* :mod:`repro.traces.cache`     -- deterministic trace memoisation (one
  generation per (workload, seed) per process),
* :mod:`repro.traces.stats`     -- popularity and skew statistics.
"""

from repro.traces.berkeley import BerkeleyWebWorkload, generate_berkeley_like_trace
from repro.traces.cache import cached_trace, TraceCache
from repro.traces.diurnal import DiurnalWorkload, generate_diurnal_trace
from repro.traces.importers import read_msr_trace
from repro.traces.logio import read_trace, write_trace
from repro.traces.model import FileSpec, RequestOp, Trace, TraceRequest
from repro.traces.nonstationary import DriftingWorkload, generate_drifting_trace
from repro.traces.stats import (
    access_counts,
    coverage_of_top_k,
    popularity_ranking,
    working_set_size,
)
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload

__all__ = [
    "BerkeleyWebWorkload",
    "DiurnalWorkload",
    "DriftingWorkload",
    "FileSpec",
    "generate_diurnal_trace",
    "generate_drifting_trace",
    "read_msr_trace",
    "RequestOp",
    "SyntheticWorkload",
    "Trace",
    "TraceCache",
    "TraceRequest",
    "access_counts",
    "cached_trace",
    "coverage_of_top_k",
    "generate_berkeley_like_trace",
    "generate_synthetic_trace",
    "popularity_ranking",
    "read_trace",
    "write_trace",
    "working_set_size",
]
