"""Unit and property tests for workload statistics."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.traces import FileSpec, generate_synthetic_trace, Trace
from repro.traces.stats import (
    access_counts,
    coverage_of_top_k,
    gini_coefficient,
    inter_arrival_times,
    popularity_ranking,
    summarize,
    working_set_size,
)
from repro.traces.synthetic import SyntheticWorkload


def trace_from_ids(file_ids, n_files=10):
    files = [FileSpec(i, 100) for i in range(n_files)]
    return Trace(files=files, times=[float(i) for i in range(len(file_ids))], file_ids=file_ids)


class TestCountsAndRanking:
    def test_access_counts(self):
        trace = trace_from_ids([1, 1, 2, 3, 3, 3])
        assert access_counts(trace) == {1: 2, 2: 1, 3: 3}

    def test_popularity_ranking_covers_whole_catalog(self):
        trace = trace_from_ids([1, 1, 2], n_files=4)
        ranking = popularity_ranking(trace)
        assert ranking == [1, 2, 0, 3]  # unaccessed files trail, id order
        assert len(ranking) == 4

    def test_working_set(self):
        assert working_set_size(trace_from_ids([5, 5, 5])) == 1
        assert working_set_size(trace_from_ids([0, 1, 2])) == 3


class TestCoverage:
    def test_coverage_zero_k(self):
        assert coverage_of_top_k(trace_from_ids([1, 2]), 0) == 0.0

    def test_coverage_full(self):
        assert coverage_of_top_k(trace_from_ids([1, 2, 3]), 10) == 1.0

    def test_coverage_partial(self):
        trace = trace_from_ids([1, 1, 1, 2])
        assert coverage_of_top_k(trace, 1) == pytest.approx(0.75)

    def test_coverage_empty_trace(self):
        trace = Trace(files=[FileSpec(0, 1)])
        assert coverage_of_top_k(trace, 5) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            coverage_of_top_k(trace_from_ids([1]), -1)


class TestGini:
    def test_uniform_is_low(self):
        trace = trace_from_ids(list(range(10)) * 10, n_files=10)
        assert gini_coefficient(trace) == pytest.approx(0.0, abs=0.01)

    def test_single_file_is_high(self):
        trace = trace_from_ids([0] * 100, n_files=100)
        assert gini_coefficient(trace) > 0.95

    def test_no_accesses_is_zero(self):
        trace = Trace(files=[FileSpec(0, 1)])
        assert gini_coefficient(trace) == 0.0


class TestMisc:
    def test_inter_arrival_times(self):
        trace = trace_from_ids([0, 1, 2])
        assert list(inter_arrival_times(trace)) == [1.0, 1.0]

    def test_inter_arrival_short_trace(self):
        assert inter_arrival_times(trace_from_ids([0])).size == 0

    def test_summarize_keys(self):
        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=100), rng=np.random.default_rng(0)
        )
        summary = summarize(trace)
        for key in (
            "n_files",
            "n_requests",
            "working_set",
            "coverage_top_70",
            "gini",
            "mean_inter_arrival_s",
        ):
            assert key in summary


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=200))
def test_coverage_monotone_and_bounded(file_ids):
    trace = trace_from_ids(file_ids)
    last = 0.0
    for k in range(0, 11):
        cover = coverage_of_top_k(trace, k)
        assert 0.0 <= cover <= 1.0
        assert cover >= last - 1e-12
        last = cover
    assert coverage_of_top_k(trace, 10) == pytest.approx(1.0)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=100))
def test_ranking_is_permutation_and_sorted_by_count(file_ids):
    trace = trace_from_ids(file_ids)
    ranking = popularity_ranking(trace)
    assert sorted(ranking) == list(range(10))
    counts = access_counts(trace)
    values = [counts.get(fid, 0) for fid in ranking]
    assert values == sorted(values, reverse=True)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=100))
def test_gini_in_unit_interval(file_ids):
    assert 0.0 <= gini_coefficient(trace_from_ids(file_ids)) <= 1.0
