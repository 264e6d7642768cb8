"""Trace exporters: Chrome trace-event JSON, JSONL spans, CSV series.

All exporters consume the plain-data :class:`~repro.obs.tracer.RunTrace`
snapshot, never a live tracer, so they can run after the simulator is
gone (or in a different process).

The Chrome format targets Perfetto / ``chrome://tracing``: each span
track becomes a named thread (``"M"`` metadata events), closed spans
become complete events (``"ph": "X"``) with microsecond timestamps, and
instants become ``"ph": "i"`` markers.  Simulated seconds are scaled to
trace microseconds, so one trace second equals one simulated second on
the Perfetto timeline.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.tracer import RunTrace, Span

_US_PER_S = 1_000_000.0

#: The process row every Chrome trace names.
PROCESS_NAME = "eevfs"


def _track_ids(trace: RunTrace) -> Dict[str, int]:
    """Stable track-name -> integer thread id mapping (sorted by name)."""
    names = sorted({span.track for span in trace.spans})
    return {name: index + 1 for index, name in enumerate(names)}


def _span_args(span: Span) -> Dict[str, object]:
    args: Dict[str, object] = {"span_id": span.span_id}
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.tags:
        args.update(span.tags)
    return args


def to_chrome_trace(trace: RunTrace) -> Dict[str, object]:
    """Render *trace* as a Chrome trace-event JSON object.

    The result is a plain dict ready for ``json.dump``; load the file in
    Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
    """
    tids = _track_ids(trace)
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": PROCESS_NAME},
        }
    ]
    for track, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for span in trace.spans:
        tid = tids[span.track]
        start_us = span.start_s * _US_PER_S
        if span.is_instant:
            events.append(
                {
                    "name": span.kind,
                    "ph": "i",
                    "s": "t",  # thread-scoped instant marker
                    "pid": 1,
                    "tid": tid,
                    "ts": start_us,
                    "args": _span_args(span),
                }
            )
        else:
            end_s = span.end_s if span.end_s is not None else span.start_s
            events.append(
                {
                    "name": span.kind,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": start_us,
                    "dur": (end_s - span.start_s) * _US_PER_S,
                    "args": _span_args(span),
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "sim_duration_s": trace.duration_s,
            "span_count": len(trace.spans),
        },
    }


def write_chrome_trace(trace: RunTrace, path: str) -> int:
    """Write the Chrome trace JSON to *path*; returns the event count."""
    document = to_chrome_trace(trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, separators=(",", ":"))
        fh.write("\n")
    trace_events = document["traceEvents"]
    assert isinstance(trace_events, list)
    return len(trace_events)


def write_spans_jsonl(trace: RunTrace, path: str) -> int:
    """Write one JSON object per span to *path*; returns the span count.

    The flat per-span schema (``span_id``, ``kind``, ``track``,
    ``start_s``, ``end_s``, optional ``parent_id``/``tags``) is the
    stable programmatic interface; the Chrome export is for human eyes.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for span in trace.spans:
            fh.write(json.dumps(span.as_dict(), sort_keys=True))
            fh.write("\n")
    return len(trace.spans)


def write_series_csv(trace: RunTrace, path: str) -> int:
    """Write all sampled telemetry series to *path* in long format.

    Columns are ``series,time_s,value`` -- one row per sample, series
    grouped together and ordered by name, ready for pandas/gnuplot.
    Returns the number of data rows written.
    """
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("series,time_s,value\n")
        for name in sorted(trace.series):
            series = trace.series[name]
            for time_s, value in zip(series.times, series.values, strict=True):
                fh.write(f"{name},{time_s!r},{value!r}\n")
                rows += 1
    return rows
