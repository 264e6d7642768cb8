"""Observability for EEVFS runs: tracing, telemetry, export, profiling.

The package answers *where simulated time and energy go* inside a run:

* :mod:`repro.obs.tracer` -- sim-time spans with parent links and tags;
* :mod:`repro.obs.telemetry` -- gauges sampled into compact array-backed
  series;
* :mod:`repro.obs.export` -- Chrome trace-event JSON (Perfetto), JSONL
  span dumps, CSV time series;
* :mod:`repro.obs.profile` -- busy-time attribution per span kind and
  component track, rendered as a text flame summary;
* :mod:`repro.obs.runtime` -- the :class:`Observability` bundle the
  cluster layer attaches when built with ``obs=True``
  (``EEVFSCluster(obs=True)``, ``JobSpec.build(obs=True)``).

Observability is strictly opt-in and zero-cost when off: instrumented
components None-check ``Simulator.tracer``, and the engine keeps its
inlined hot loop when no event hook is installed.
"""

from repro.obs.export import (
    to_chrome_trace,
    write_chrome_trace,
    write_series_csv,
    write_spans_jsonl,
)
from repro.obs.profile import KindStat, ProfileReport, merged_busy_time, profile_trace
from repro.obs.runtime import DEFAULT_SAMPLE_INTERVAL_S, Observability, maybe_snapshot
from repro.obs.telemetry import Gauge, Series, TelemetryRegistry
from repro.obs.tracer import SPAN_KINDS, RunTrace, Span, Tracer

__all__ = [
    "SPAN_KINDS",
    "Span",
    "Tracer",
    "RunTrace",
    "Gauge",
    "Series",
    "TelemetryRegistry",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
    "write_series_csv",
    "KindStat",
    "ProfileReport",
    "merged_busy_time",
    "profile_trace",
    "Observability",
    "maybe_snapshot",
    "DEFAULT_SAMPLE_INTERVAL_S",
]
