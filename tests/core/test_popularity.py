"""Unit tests for popularity estimation from the access log (§IV-A)."""

import pytest

from repro.core.popularity import PopularityEstimator, WindowEstimator
from repro.traces import FileSpec, Trace, TraceRequest


def trace_from_ids(ids, n_files=10):
    return Trace(
        files=[FileSpec(i, 100) for i in range(n_files)],
        requests=[TraceRequest(float(i), fid) for i, fid in enumerate(ids)],
    )


def test_from_trace_counts(self=None):
    est = PopularityEstimator.from_trace(trace_from_ids([1, 1, 2]))
    assert est.counts() == {1: 2, 2: 1}


def test_online_recording():
    est = PopularityEstimator()
    est.record(0.0, 5)
    est.record(1.0, 5)
    assert est.counts() == {5: 2}


def test_ranking_observed_only():
    est = PopularityEstimator.from_trace(trace_from_ids([2, 2, 7]))
    assert est.ranking() == [2, 7]


def test_ranking_rejects_log_outside_catalog():
    est = PopularityEstimator()
    est.record(0.0, 2)
    est.record(1.0, 7)  # 7 is outside the catalog below
    with pytest.raises(ValueError):
        est.ranking(catalog=[0, 1, 2, 3])


def test_ranking_catalog_total_order():
    est = PopularityEstimator.from_trace(trace_from_ids([2, 2, 1], n_files=5))
    ranking = est.ranking(catalog=range(5))
    assert ranking == [2, 1, 0, 3, 4]
    assert len(ranking) == 5


def test_top_k():
    est = PopularityEstimator.from_trace(trace_from_ids([3, 3, 3, 1, 1, 4]))
    assert est.top_k(2) == [3, 1]
    assert est.top_k(0) == []
    with pytest.raises(ValueError):
        est.top_k(-1)


def test_top_k_with_catalog_padding():
    est = PopularityEstimator.from_trace(trace_from_ids([3, 3], n_files=5))
    assert est.top_k(3, catalog=range(5)) == [3, 0, 1]


def test_tie_break_is_lower_id_first():
    est = PopularityEstimator.from_trace(trace_from_ids([9, 4, 9, 4]))
    assert est.ranking() == [4, 9]


def test_window_counts_only_recent_accesses():
    """Oracle-mode replanning ranks the last ``window_s`` seconds before
    the clock's now, not the whole log."""
    est = WindowEstimator(window_s=5.0, clock=lambda: 10.0)
    for time_s, file_id in [(1.0, 1), (2.0, 1), (6.0, 2), (9.0, 3), (9.5, 3)]:
        est.record(time_s, file_id)
    assert est.recorded == 5
    assert est.counts() == {2: 1, 3: 2}
    assert est.ranking(catalog=range(5)) == [3, 2, 0, 1, 4]
