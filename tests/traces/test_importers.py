"""Tests for the MSR block-trace importer."""

import io

import pytest

from repro.traces.importers import MB, read_msr_trace
from repro.traces.model import RequestOp

TICK = 10_000_000  # FILETIME ticks per second


def msr_csv(rows):
    return io.StringIO("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")


class TestMSR:
    def test_basic_import(self):
        rows = [
            [0 * TICK, "web0", 0, "Read", 0, 4096, 100],
            [1 * TICK, "web0", 0, "Write", 20 * MB, 4096, 100],
            [2 * TICK, "web0", 0, "Read", 1 * MB, 4096, 100],
        ]
        trace = read_msr_trace(msr_csv(rows), extent_bytes=10 * MB)
        assert trace.n_requests == 3
        # Offsets 0 and 1 MB share extent 0; 20 MB is extent 2 -> file 1.
        assert [r.file_id for r in trace] == [0, 1, 0]
        assert [r.op for r in trace] == [
            RequestOp.READ,
            RequestOp.WRITE,
            RequestOp.READ,
        ]
        assert trace.n_files == 2

    def test_times_shift_to_zero(self):
        rows = [
            [100 * TICK, "h", 0, "Read", 0, 512, 1],
            [103 * TICK, "h", 0, "Read", 0, 512, 1],
        ]
        trace = read_msr_trace(msr_csv(rows))
        assert [r.time_s for r in trace] == [0.0, 3.0]

    def test_out_of_order_records_sorted(self):
        rows = [
            [5 * TICK, "h", 0, "Read", 0, 512, 1],
            [2 * TICK, "h", 0, "Read", 0, 512, 1],
        ]
        trace = read_msr_trace(msr_csv(rows))
        assert [r.time_s for r in trace] == [0.0, 3.0]

    def test_distinct_disks_are_distinct_extents(self):
        rows = [
            [0, "h", 0, "Read", 0, 512, 1],
            [TICK, "h", 1, "Read", 0, 512, 1],
        ]
        trace = read_msr_trace(msr_csv(rows))
        assert trace.n_files == 2

    def test_comments_and_blank_lines_skipped(self):
        content = io.StringIO("# header\n\n0,h,0,Read,0,512,1\n")
        assert read_msr_trace(content).n_requests == 1

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_msr_trace(io.StringIO("abc,h,0,Read,0,512,1\n"))
        with pytest.raises(ValueError, match="unknown op"):
            read_msr_trace(io.StringIO("0,h,0,Erase,0,512,1\n"))
        with pytest.raises(ValueError):
            read_msr_trace(io.StringIO("0,h,0\n"))

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            read_msr_trace(io.StringIO("# nothing\n"))

    def test_extent_validation(self):
        with pytest.raises(ValueError):
            read_msr_trace(io.StringIO("0,h,0,Read,0,512,1\n"), extent_bytes=0)

    def test_file_sizes_are_extent_size(self):
        trace = read_msr_trace(
            msr_csv([[0, "h", 0, "Read", 0, 512, 1]]), extent_bytes=5 * MB
        )
        assert trace.files[0].size_bytes == 5 * MB
        assert trace.meta["extent_bytes"] == 5 * MB
