"""Unit tests for trace persistence and the access log."""

import io
import math

import numpy as np
import pytest

from repro.core.popularity import WindowEstimator
from repro.traces import (
    FileSpec,
    generate_synthetic_trace,
    read_trace,
    Trace,
    write_trace,
)
from repro.traces.synthetic import SyntheticWorkload


def trace_round_trip(trace):
    """*trace* written to and read back from memory."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    buffer.seek(0)
    return read_trace(buffer)


def small_trace():
    return Trace(
        files=[FileSpec(0, 100), FileSpec(1, 200)],
        meta={"origin": "unit-test"},
        times=[0.0, 0.25, 1.0],
        file_ids=[0, 1, 0],
        writes=[False, True, False],
    )


class TestTraceFiles:
    def test_round_trip_in_memory(self):
        original = small_trace()
        restored = trace_round_trip(original)
        assert restored.n_files == original.n_files
        assert [(r.time_s, r.file_id, r.op) for r in restored] == [
            (r.time_s, r.file_id, r.op) for r in original
        ]
        assert restored.meta["origin"] == "unit-test"

    def test_round_trip_on_disk(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(small_trace(), path)
        restored = read_trace(path)
        assert restored.n_requests == 3

    def test_round_trip_of_generated_trace(self):
        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=200), rng=np.random.default_rng(0)
        )
        restored = trace_round_trip(trace)
        assert [r.file_id for r in restored] == [r.file_id for r in trace]
        assert restored.duration_s == pytest.approx(trace.duration_s)

    def test_timestamps_survive_exactly(self):
        """repr round-tripping keeps float timestamps bit-exact."""
        # 0.1 + 0.2 is the classic non-representable sum.
        trace = Trace(files=[FileSpec(0, 1)], times=[0.1 + 0.2], file_ids=[0])
        restored = trace_round_trip(trace)
        assert restored.requests[0].time_s == trace.requests[0].time_s

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="not an eevfs trace"):
            read_trace(io.StringIO("something else\n"))

    def test_malformed_record_rejected(self):
        content = "#eevfs-trace v1\nF 0 100\nR zero 0 read\n"
        with pytest.raises(ValueError, match="line 3"):
            read_trace(io.StringIO(content))

    def test_unknown_record_type_rejected(self):
        content = "#eevfs-trace v1\nX what\n"
        with pytest.raises(ValueError):
            read_trace(io.StringIO(content))

    def test_blank_lines_and_comments_skipped(self):
        content = "#eevfs-trace v1\n\n# a comment\nF 0 100\nR 0.0 0 read\n"
        trace = read_trace(io.StringIO(content))
        assert trace.n_requests == 1


class TestAccessLog:
    """The storage server's append-only access log, kept by
    :class:`WindowEstimator`; an unbounded window counts all of it."""

    def test_append_and_count(self):
        log = WindowEstimator(window_s=math.inf, clock=lambda: 2.0)
        log.record(0.0, 5)
        log.record(1.0, 5)
        log.record(2.0, 7)
        assert log.recorded == 3
        assert log.counts() == {5: 2, 7: 1}
