"""Unit tests for the workload data model."""

import pytest

from repro.traces import FileSpec, RequestOp, Trace, TraceRequest
from repro.traces.model import make_catalog

MB = 1024 * 1024


def small_trace():
    files = [FileSpec(0, 1 * MB), FileSpec(1, 2 * MB), FileSpec(2, 3 * MB)]
    requests = [
        TraceRequest(0.0, 0),
        TraceRequest(1.0, 1),
        TraceRequest(2.0, 0),
        TraceRequest(3.5, 2, op=RequestOp.WRITE),
    ]
    return Trace(files=files, requests=requests, meta={"origin": "test"})


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

    def test_file_lookup(self):
        trace = small_trace()
        assert trace.file(1).size_bytes == 2 * MB
        with pytest.raises(KeyError):
            trace.file(99)

    def test_duplicate_file_ids_rejected(self):
        with pytest.raises(ValueError):
            Trace(files=[FileSpec(0, 1), FileSpec(0, 2)], requests=[])

    def test_unknown_request_file_rejected(self):
        with pytest.raises(ValueError):
            Trace(files=[FileSpec(0, 1)], requests=[TraceRequest(0.0, 5)])

    def test_out_of_order_requests_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                files=[FileSpec(0, 1)],
                requests=[TraceRequest(2.0, 0), TraceRequest(1.0, 0)],
            )

    def test_empty_trace_duration_zero(self):
        trace = Trace(files=[FileSpec(0, 1)], requests=[])
        assert trace.duration_s == 0.0
        assert trace.total_bytes == 0

    def test_iteration_yields_requests_in_order(self):
        trace = small_trace()
        times = [r.time_s for r in trace]
        assert times == sorted(times)


class TestTransforms:
    def test_with_inter_arrival_respaces(self):
        trace = small_trace().with_inter_arrival(0.5)
        assert [r.time_s for r in trace] == [0.0, 0.5, 1.0, 1.5]
        # Order and identity preserved.
        assert [r.file_id for r in trace] == [0, 1, 0, 2]
        assert trace.meta["inter_arrival_s"] == 0.5

    def test_with_inter_arrival_zero(self):
        trace = small_trace().with_inter_arrival(0.0)
        assert all(r.time_s == 0.0 for r in trace)

    def test_with_inter_arrival_negative_rejected(self):
        with pytest.raises(ValueError):
            small_trace().with_inter_arrival(-1.0)

    def test_with_file_size_overrides_catalog(self):
        trace = small_trace().with_file_size(10 * MB)
        assert all(f.size_bytes == 10 * MB for f in trace.files)
        assert trace.total_bytes == 4 * 10 * MB

    def test_with_file_size_preserves_requests(self):
        original = small_trace()
        trace = original.with_file_size(10 * MB)
        assert [r.file_id for r in trace] == [r.file_id for r in original]

    def test_head_truncates_requests_only(self):
        trace = small_trace().head(2)
        assert trace.n_requests == 2
        assert trace.n_files == 3

    def test_head_validation(self):
        with pytest.raises(ValueError):
            small_trace().head(-1)

    def test_transforms_do_not_mutate_original(self):
        original = small_trace()
        original.with_file_size(99)
        original.with_inter_arrival(9.0)
        assert original.file(0).size_bytes == 1 * MB
        assert original.requests[1].time_s == 1.0


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
