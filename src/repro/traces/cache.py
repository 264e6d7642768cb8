"""Deterministic trace caching.

Trace generation is pure: a (workload kind, workload parameters, rng
seed) triple always yields the same :class:`~repro.traces.model.Trace`.
Experiment drivers exploit that in two ways:

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

from dataclasses import astuple, is_dataclass
from typing import Any, Callable, Dict, Tuple

from repro.traces.model import Trace

#: Workload kind -> generator taking ``(workload, rng)``.  Resolved
#: lazily so importing the cache does not pull every workload module.
_KINDS = ("synthetic", "drifting", "diurnal", "berkeley")


def _generator_for(kind: str) -> Callable:
    if kind == "synthetic":
        from repro.traces.synthetic import generate_synthetic_trace

        return generate_synthetic_trace
    if kind == "drifting":
        from repro.traces.nonstationary import generate_drifting_trace

        return generate_drifting_trace
    if kind == "diurnal":
        from repro.traces.diurnal import generate_diurnal_trace

        return generate_diurnal_trace
    if kind == "berkeley":
        from repro.traces.berkeley import generate_berkeley_like_trace

        return generate_berkeley_like_trace
    raise ValueError(f"unknown trace kind {kind!r}; options: {_KINDS}")


def _freeze(value: Any) -> Any:
    """Recursively convert containers to hashable equivalents."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    return value


def trace_key(kind: str, workload: Any, seed: int) -> Tuple:
    """Hashable identity of a generated trace."""
    if not is_dataclass(workload):
        raise TypeError(f"workload must be a dataclass, got {workload!r}")
    return (kind, type(workload).__name__, _freeze(astuple(workload)), int(seed))


class TraceCache:
    """Memoises generated traces by :func:`trace_key`.

    ``hits``/``misses`` are exposed so tests can assert that repeated
    experiments really do reuse one trace rather than regenerating it.
    """

    def __init__(self) -> None:
        self._traces: Dict[Tuple, Trace] = {}
        self.hits = 0
        self.misses = 0

    def get(self, kind: str, workload: Any, seed: int = 1) -> Trace:
        """Return the trace for (kind, workload, seed), generating once."""
        key = trace_key(kind, workload, seed)
        trace = self._traces.get(key)
        if trace is not None:
            self.hits += 1
            return trace
        import numpy as np

        self.misses += 1
        trace = _generator_for(kind)(workload, rng=np.random.default_rng(seed))
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


def cached_trace(kind: str, workload: Any, seed: int = 1) -> Trace:
    """Fetch (or generate once) a trace from the process-wide cache."""
    return GLOBAL_TRACE_CACHE.get(kind, workload, seed)
