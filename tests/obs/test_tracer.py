"""Unit tests for the span tracer (repro.obs.tracer)."""

import pickle

import pytest

from repro.obs import SPAN_KINDS, Tracer
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_span_vocabulary_covers_the_required_kinds():
    for kind in ("request", "server.lookup", "net.transfer",
                 "node.dispatch", "disk.service", "prefetch.copy", "spinup"):
        assert kind in SPAN_KINDS


def test_begin_end_records_interval(sim):
    tracer = Tracer(sim)
    span = tracer.begin("disk.service", "data0", io="read")
    sim.run(until=2.5)
    tracer.end(span, ok=True)
    (span,) = tracer.spans
    assert span.start_s == 0.0
    assert span.end_s == 2.5
    assert span.duration_s == 2.5
    assert span.tags == {"io": "read", "ok": True}
    assert not span.is_instant


def test_end_is_idempotent(sim):
    tracer = Tracer(sim)
    span = tracer.begin("spinup", "data0")
    sim.run(until=1.0)
    tracer.end(span)
    sim.run(until=2.0)
    tracer.end(span)  # second end must not move end_s
    assert span.end_s == 1.0


def test_instant_spans_have_zero_duration(sim):
    tracer = Tracer(sim)
    span = tracer.instant("power.sleep", "data1", window_s=4.0)
    assert span.is_instant
    assert span.duration_s == 0.0
    assert span.tags == {"window_s": 4.0}


def test_parenting_links_span_ids(sim):
    tracer = Tracer(sim)
    root = tracer.begin("request", "client")
    child = tracer.begin("server.lookup", "server", parent=root)
    assert child.parent_id == root.span_id
    assert root.parent_id is None


def test_request_correlation_round_trip(sim):
    tracer = Tracer(sim)
    span = tracer.begin_request(7, "client", file_id=3)
    assert tracer.request_span(7) is span
    assert tracer.request_span(99) is None
    closed = tracer.end_request(7, ok=True)
    assert closed is span
    assert span.tags == {"file_id": 3, "ok": True}
    assert tracer.request_span(7) is None  # unregistered
    assert tracer.end_request(7) is None  # idempotent


def test_snapshot_clamps_open_spans(sim):
    tracer = Tracer(sim)
    open_span = tracer.begin("spinup", "data0")
    sim.run(until=3.0)
    trace = tracer.snapshot()
    assert open_span.end_s == 3.0
    assert open_span.tags == {"incomplete": True}
    assert trace.duration_s == 3.0


def test_run_trace_is_picklable_plain_data(sim):
    tracer = Tracer(sim)
    root = tracer.begin_request(1, "client")
    tracer.begin("disk.service", "data0", parent=root, bytes=4096)
    tracer.end_request(1)
    trace = tracer.snapshot()
    clone = pickle.loads(pickle.dumps(trace))
    assert len(clone.spans) == len(trace.spans)
    assert clone.span_kinds() == ["disk.service", "request"]
    assert len(clone.spans_of("disk.service")) == 1


def test_tracing_never_schedules_events(sim):
    tracer = Tracer(sim)
    before = sim.queue_size
    span = tracer.begin("request", "client")
    tracer.instant("fault", "data0")
    tracer.end(span)
    tracer.snapshot()
    assert sim.queue_size == before  # pure observation, no participation
