"""Deterministic trace caching.

Trace generation is pure: a workload dataclass and an rng seed always
yield the same :class:`~repro.traces.model.Trace`, and the workload's
type picks the generator.  Experiment drivers exploit that in two ways:

* repetition and ablation loops reuse one trace across many runs
  instead of regenerating it per point;
* parallel workers rebuild traces from compact
  :class:`~repro.parallel.jobs.TraceSpec` keys (traces are never
  pickled across process boundaries) and cache them per worker.

A trace's requests are typed columns (``times``, ``file_ids``,
``writes``) that the client, the server's hints and the oracle ranking
read in place.  The columns are mutable ``array``s, but consumers
still never write a trace -- replay reads them, nothing writes -- so
sharing one object is safe.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.traces.berkeley import BerkeleyWebWorkload, generate_berkeley_like_trace
from repro.traces.diurnal import DiurnalWorkload, generate_diurnal_trace
from repro.traces.model import Trace
from repro.traces.nonstationary import DriftingWorkload, generate_drifting_trace
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload

#: Workload type -> generator taking ``(workload, rng)``.
_GENERATORS: Dict[type, Callable[..., Trace]] = {
    SyntheticWorkload: generate_synthetic_trace,
    DriftingWorkload: generate_drifting_trace,
    DiurnalWorkload: generate_diurnal_trace,
    BerkeleyWebWorkload: generate_berkeley_like_trace,
}


def trace_key(workload: Any, seed: int) -> Tuple:
    """Hashable identity of a generated trace (every workload field is a
    scalar, so the dataclass's tuple is hashable)."""
    return (type(workload).__name__, astuple(workload), int(seed))


class TraceCache:
    """Memoises generated traces by :func:`trace_key`.

    ``hits``/``misses`` are exposed so tests can assert that repeated
    experiments really do reuse one trace rather than regenerating it.
    """

    def __init__(self) -> None:
        self._traces: Dict[Tuple, Trace] = {}
        self.hits = 0
        self.misses = 0

    def get(self, workload: Any, seed: int = 1) -> Trace:
        """Return the trace for (workload, seed), generating once."""
        key = trace_key(workload, seed)
        trace = self._traces.get(key)
        if trace is not None:
            self.hits += 1
            return trace
        self.misses += 1
        try:
            generate = _GENERATORS[type(workload)]
        except KeyError:
            raise TypeError(f"no trace generator for {type(workload).__name__}") from None
        trace = generate(workload, rng=np.random.default_rng(seed))
        self._traces[key] = trace
        return trace

    def clear(self) -> None:
        """Drop all cached traces and reset the counters."""
        self._traces.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._traces)


#: Process-wide cache; each parallel worker gets its own copy on fork.
GLOBAL_TRACE_CACHE = TraceCache()


def cached_trace(workload: Any, seed: int = 1) -> Trace:
    """Fetch (or generate once) a trace from the process-wide cache."""
    return GLOBAL_TRACE_CACHE.get(workload, seed)
