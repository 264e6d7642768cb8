"""Unit tests for popularity estimation from the access log (§IV-A)."""

from collections import Counter
import math

import pytest

from repro.core.popularity import ranked, WindowEstimator
from repro.traces import FileSpec, Trace


def log_of(ids):
    """A whole-log estimator (an unbounded window) that has recorded
    *ids*, one access a second."""
    est = WindowEstimator(window_s=math.inf, clock=lambda: float(len(ids)))
    for time_s, file_id in enumerate(ids):
        est.record(float(time_s), file_id)
    return est


def test_from_trace_counts():
    """Oracle setup ranks the history trace's file-id column by count."""
    trace = Trace(
        files=[FileSpec(i, 100) for i in range(4)],
        times=[0.0, 1.0, 2.0],
        file_ids=[1, 1, 2],
    )
    counts = Counter(trace.file_ids)
    assert counts == {1: 2, 2: 1}
    assert ranked(counts, catalog=range(4)) == [1, 2, 0, 3]


def test_online_recording():
    est = log_of([5, 5])
    assert est.recorded == 2
    assert est.counts() == {5: 2}


def test_record_out_of_order_rejected():
    est = WindowEstimator(window_s=math.inf, clock=lambda: 0.0)
    est.record(5.0, 0)
    with pytest.raises(ValueError, match="time order"):
        est.record(4.0, 0)


def test_negative_file_id_rejected():
    est = WindowEstimator(window_s=math.inf, clock=lambda: 0.0)
    with pytest.raises(ValueError, match="file_id"):
        est.record(0.0, -1)


def test_ranking_observed_only():
    assert log_of([2, 2, 7]).ranking() == [2, 7]


def test_ranking_rejects_log_outside_catalog():
    est = log_of([2, 7])  # 7 is outside the catalog below
    with pytest.raises(ValueError):
        est.ranking(catalog=[0, 1, 2, 3])


def test_ranking_catalog_total_order():
    ranking = log_of([2, 2, 1]).ranking(catalog=range(5))
    assert ranking == [2, 1, 0, 3, 4]
    assert len(ranking) == 5


def test_tie_break_is_lower_id_first():
    assert log_of([9, 4, 9, 4]).ranking() == [4, 9]


def test_window_counts_only_recent_accesses():
    """Oracle-mode replanning ranks the last ``window_s`` seconds before
    the clock's now, not the whole log."""
    est = WindowEstimator(window_s=5.0, clock=lambda: 10.0)
    for time_s, file_id in [(1.0, 1), (2.0, 1), (6.0, 2), (9.0, 3), (9.5, 3)]:
        est.record(time_s, file_id)
    assert est.recorded == 5
    assert est.counts() == {2: 1, 3: 2}
    assert est.ranking(catalog=range(5)) == [3, 2, 0, 1, 4]


def test_window_includes_its_left_edge():
    now = [2.0]
    est = WindowEstimator(window_s=1.0, clock=lambda: now[0])
    for time_s, file_id in [(0.0, 1), (1.0, 2), (2.0, 1), (3.0, 3)]:
        est.record(time_s, file_id)
    assert est.counts() == {2: 1, 1: 1, 3: 1}  # an access at now - window counts
    now[0] = 3.5
    assert est.counts() == {3: 1}
