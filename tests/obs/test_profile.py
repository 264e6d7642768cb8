"""Profiler tests: busy-time union, self-time attribution, rendering."""

from repro.obs import merged_busy_time, profile_trace, Span, Tracer
from repro.sim import Simulator


def span(span_id, kind, track, start, end, parent_id=None):
    closed = Span(span_id=span_id, kind=kind, track=track, start_s=start, parent_id=parent_id)
    closed.end_s = end
    return closed


class TestMergedBusyTime:
    def test_disjoint_intervals_sum(self):
        spans = [span(0, "a", "t", 0.0, 1.0), span(1, "a", "t", 2.0, 3.0)]
        assert merged_busy_time(spans) == 2.0

    def test_overlap_counts_once(self):
        spans = [span(0, "a", "t", 0.0, 2.0), span(1, "a", "t", 1.0, 3.0)]
        assert merged_busy_time(spans) == 3.0

    def test_nested_counts_once(self):
        spans = [span(0, "a", "t", 0.0, 4.0), span(1, "a", "t", 1.0, 2.0)]
        assert merged_busy_time(spans) == 4.0

    def test_instants_ignored(self):
        assert merged_busy_time([span(0, "fault", "t", 1.0, 1.0)]) == 0.0


def traced_run():
    sim = Simulator()
    tracer = Tracer(sim)
    root = tracer.begin_request(1, "client")
    lookup = tracer.begin("server.lookup", "server", parent=root)
    sim.run(until=1.0)
    tracer.end(lookup)
    service = tracer.begin("disk.service", "data0", parent=root)
    sim.run(until=4.0)
    tracer.end(service)
    tracer.end_request(1)
    return tracer.snapshot()


def test_per_kind_totals_and_self_time():
    report = profile_trace(traced_run())
    assert report.duration_s == 4.0
    assert report.by_kind["request"].total_s == 4.0
    assert report.by_kind["request"].count == 1
    # Children cover the whole request: its self time is zero.
    assert report.by_kind["request"].self_s == 0.0
    assert report.by_kind["disk.service"].self_s == 3.0


def test_parent_edges_and_roots():
    report = profile_trace(traced_run())
    assert report.roots == ["request"]
    assert report.children["request"] == ["disk.service", "server.lookup"]


def test_per_track_busy_time():
    report = profile_trace(traced_run())
    assert report.by_track["client"] == 4.0
    assert report.by_track["server"] == 1.0
    assert report.by_track["data0"] == 3.0


def test_render_mentions_kinds_and_tracks():
    text = profile_trace(traced_run()).render()
    assert "sim-time profile" in text
    assert "request" in text
    assert "disk.service" in text
    assert "busiest tracks" in text
    assert "data0" in text


def test_render_empty_trace():
    sim = Simulator()
    text = profile_trace(Tracer(sim).snapshot()).render()
    assert "(no spans recorded)" in text
