"""Unit tests for the workload data model."""

from collections.abc import Sequence

import numpy as np
import pytest

from repro.traces import FileSpec, RequestOp, Trace, TraceRequest
from repro.traces.model import make_catalog

MB = 1024 * 1024


def small_trace():
    files = [FileSpec(0, 1 * MB), FileSpec(1, 2 * MB), FileSpec(2, 3 * MB)]
    return Trace(
        files,
        meta={"origin": "test"},
        times=[0.0, 1.0, 2.0, 3.5],
        file_ids=[0, 1, 0, 2],
        writes=[False, False, False, True],
    )


class TestFileSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FileSpec(-1, 10)
        with pytest.raises(ValueError):
            FileSpec(0, -10)

    def test_frozen(self):
        spec = FileSpec(0, 10)
        with pytest.raises(AttributeError):
            spec.size_bytes = 20


class TestTraceRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRequest(-1.0, 0)
        with pytest.raises(ValueError):
            TraceRequest(0.0, -1)

    @pytest.mark.parametrize("time_s", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, time_s):
        # An infinite timestamp made replay poll toward t = inf forever.
        with pytest.raises(ValueError, match="finite"):
            TraceRequest(time_s, 0)

    def test_records_carry_no_instance_dict(self):
        assert not hasattr(TraceRequest(0.0, 0), "__dict__")
        assert not hasattr(FileSpec(0, 1), "__dict__")

    def test_default_op_is_read(self):
        assert TraceRequest(0.0, 0).op is RequestOp.READ


class TestTrace:
    def test_basic_properties(self):
        trace = small_trace()
        assert trace.n_files == 3
        assert trace.n_requests == 4
        assert len(trace) == 4
        assert trace.duration_s == 3.5
        assert trace.accessed_file_ids() == {0, 1, 2}

    def test_total_bytes_counts_per_request(self):
        trace = small_trace()
        # file 0 accessed twice (1 MB), file 1 once (2 MB), file 2 once (3 MB)
        assert trace.total_bytes == (1 + 1 + 2 + 3) * MB

    def test_duplicate_file_ids_rejected(self):
        with pytest.raises(ValueError):
            Trace(files=[FileSpec(0, 1), FileSpec(0, 2)])

    def test_unknown_request_file_rejected(self):
        with pytest.raises(ValueError):
            Trace(files=[FileSpec(0, 1)], times=[0.0], file_ids=[5])

    def test_out_of_order_requests_rejected(self):
        with pytest.raises(ValueError):
            Trace(files=[FileSpec(0, 1)], times=[2.0, 1.0], file_ids=[0, 0])

    def test_empty_trace_duration_zero(self):
        trace = Trace(files=[FileSpec(0, 1)])
        assert trace.duration_s == 0.0
        assert trace.total_bytes == 0

    def test_iteration_yields_requests_in_order(self):
        trace = small_trace()
        times = [r.time_s for r in trace]
        assert times == sorted(times)


class TestColumns:
    def test_records_convert_to_typed_columns(self):
        trace = small_trace()  # built from lists
        assert (trace.times.typecode, trace.file_ids.typecode, trace.writes.typecode) == (
            "d",
            "q",
            "B",
        )
        assert list(trace.times) == [0.0, 1.0, 2.0, 3.5]
        assert list(trace.file_ids) == [0, 1, 0, 2]
        assert list(trace.writes) == [0, 0, 0, 1]

    def test_columns_build_the_same_trace_as_records(self):
        columns = Trace(
            small_trace().files,
            meta={"origin": "test"},
            times=np.array([0.0, 1.0, 2.0, 3.5]),
            file_ids=np.array([0, 1, 0, 2]),
            writes=np.array([False, False, False, True]),
        )
        assert columns == small_trace()
        assert list(columns) == [
            TraceRequest(0.0, 0),
            TraceRequest(1.0, 1),
            TraceRequest(2.0, 0),
            TraceRequest(3.5, 2, op=RequestOp.WRITE),
        ]

    def test_missing_write_flags_mean_reads(self):
        trace = Trace([FileSpec(0, 1)], times=[0.0, 1.0], file_ids=[0, 0])
        assert [r.op for r in trace] == [RequestOp.READ, RequestOp.READ]

    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="length"):
            Trace([FileSpec(0, 1)], times=[0.0, 1.0], file_ids=[0])

    @pytest.mark.parametrize("time_s", [float("nan"), float("inf"), -1.0])
    def test_bad_column_time_rejected_with_the_record_message(self, time_s):
        with pytest.raises(ValueError, match=r"time_s must be finite and >= 0, got"):
            Trace([FileSpec(0, 1)], times=[0.0, time_s], file_ids=[0, 0])

    def test_negative_column_id_rejected_with_the_record_message(self):
        with pytest.raises(ValueError, match=r"file_id must be >= 0, got -3"):
            Trace([FileSpec(0, 1)], times=[0.0], file_ids=[-3])

    def test_unknown_column_id_rejected(self):
        with pytest.raises(ValueError, match="unknown file_id 7"):
            Trace([FileSpec(0, 1)], times=[0.0, 1.0], file_ids=[0, 7])

    def test_requests_is_a_read_only_sequence_of_records(self):
        trace = small_trace()
        requests = trace.requests
        assert isinstance(requests, Sequence)
        assert not hasattr(requests, "append")
        assert len(requests) == 4
        assert requests[1] == TraceRequest(1.0, 1)
        assert requests[-1] == TraceRequest(3.5, 2, op=RequestOp.WRITE)
        assert requests[1:3] == [TraceRequest(1.0, 1), TraceRequest(2.0, 0)]
        assert list(requests) == list(trace)
        with pytest.raises(IndexError):
            requests[4]

    def test_transforms_keep_write_flags(self):
        trace = small_trace()
        assert [r.op for r in trace.head(4)] == [r.op for r in trace]


class TestTransforms:
    def test_head_truncates_requests_only(self):
        trace = small_trace().head(2)
        assert trace.n_requests == 2
        assert trace.n_files == 3

    def test_head_validation(self):
        with pytest.raises(ValueError):
            small_trace().head(-1)

    def test_transforms_do_not_mutate_original(self):
        original = small_trace()
        original.head(1)
        assert original.n_requests == 4
        assert original.meta == {"origin": "test"}


class TestMakeCatalog:
    def test_builds_specs(self):
        catalog = make_catalog(3, [10, 20, 30])
        assert [f.size_bytes for f in catalog] == [10, 20, 30]
        assert [f.file_id for f in catalog] == [0, 1, 2]

    def test_size_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_catalog(3, [10, 20])

    def test_zero_files_rejected(self):
        with pytest.raises(ValueError):
            make_catalog(0, [])
