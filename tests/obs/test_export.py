"""Exporter tests: Chrome trace JSON, JSONL spans, CSV series."""

import json

from repro.obs import (
    Series,
    to_chrome_trace,
    Tracer,
    write_chrome_trace,
    write_series_csv,
    write_spans_jsonl,
)
from repro.sim import Simulator


def sample_trace():
    """A small hand-built trace: one request tree plus an instant."""
    sim = Simulator()
    tracer = Tracer(sim)
    root = tracer.begin_request(1, "client", file_id=9)

    span = tracer.begin("disk.service", "data0", parent=root, bytes=4096)
    sim.run(until=2.0)
    tracer.end(span)
    tracer.instant("power.sleep", "data1", window_s=3.0)
    sim.run(until=3.0)
    tracer.end_request(1, ok=True)
    series = Series("queue_depth")
    series.append(0.0, 1.0)
    series.append(1.0, 2.0)
    return tracer.snapshot(series={"queue_depth": series})


def test_chrome_trace_structure():
    document = to_chrome_trace(sample_trace())
    events = document["traceEvents"]

    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert names == {"client", "data0", "data1"}
    assert any(e["name"] == "process_name" and e["args"]["name"] == "eevfs"
               for e in meta)

    complete = {e["name"]: e for e in events if e["ph"] == "X"}
    assert complete["disk.service"]["ts"] == 0.0
    assert complete["disk.service"]["dur"] == 2_000_000.0  # 2 sim-s in us
    assert complete["request"]["dur"] == 3_000_000.0
    assert complete["disk.service"]["args"]["parent_id"] == 0
    assert complete["disk.service"]["args"]["bytes"] == 4096

    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["s"] == "t"
    assert document["otherData"]["span_count"] == 3


def test_track_tids_are_stable_and_sorted():
    events = to_chrome_trace(sample_trace())["traceEvents"]
    tids = {e["args"]["name"]: e["tid"]
            for e in events if e["name"] == "thread_name"}
    assert tids == {"client": 1, "data0": 2, "data1": 3}


def test_write_chrome_trace_round_trips(tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(sample_trace(), str(path))
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == count
    assert loaded["displayTimeUnit"] == "ms"


def test_write_spans_jsonl(tmp_path):
    path = tmp_path / "spans.jsonl"
    count = write_spans_jsonl(sample_trace(), str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == count == 3
    records = [json.loads(line) for line in lines]
    kinds = {r["kind"] for r in records}
    assert kinds == {"request", "disk.service", "power.sleep"}
    child = next(r for r in records if r["kind"] == "disk.service")
    assert child["parent_id"] == 0
    assert child["tags"]["bytes"] == 4096


def test_write_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    rows = write_series_csv(sample_trace(), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "series,time_s,value"
    assert rows == len(lines) - 1 == 2
    assert lines[1].split(",")[0] == "queue_depth"
    assert float(lines[1].split(",")[2]) == 1.0
