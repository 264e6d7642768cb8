"""Trace caching: generation is hoisted, repetitions share one trace."""

import numpy as np
import pytest

from repro.experiments.repetition import repeat_pair
from repro.traces.cache import GLOBAL_TRACE_CACHE, trace_key, TraceCache
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload


@pytest.fixture(autouse=True)
def fresh_global_cache():
    GLOBAL_TRACE_CACHE.clear()
    yield
    GLOBAL_TRACE_CACHE.clear()


def test_cache_returns_same_object_and_counts_hits():
    cache = TraceCache()
    workload = SyntheticWorkload(n_requests=40)
    first = cache.get(workload, 1)
    second = cache.get(workload, 1)
    assert first is second
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 1


def test_cache_distinguishes_seed_and_parameters():
    cache = TraceCache()
    workload = SyntheticWorkload(n_requests=40)
    a = cache.get(workload, 1)
    b = cache.get(workload, 2)
    c = cache.get(SyntheticWorkload(n_requests=50), 1)
    assert a is not b and a is not c
    assert cache.misses == 3


def test_cached_trace_matches_direct_generation():
    workload = SyntheticWorkload(n_requests=40)
    cached = TraceCache().get(workload, 7)
    direct = generate_synthetic_trace(workload, rng=np.random.default_rng(7))
    assert cached.n_requests == direct.n_requests
    assert [r.file_id for r in cached.requests] == [r.file_id for r in direct.requests]
    assert [r.time_s for r in cached.requests] == [r.time_s for r in direct.requests]


def test_trace_key_requires_dataclass():
    with pytest.raises(TypeError):
        trace_key({"n_requests": 10}, 1)


def test_repetition_fixed_trace_generated_once():
    # vary_trace=False repeats one trace across every seed; the cache
    # must serve all but the first of the six runs (PF and NPF per seed)
    # from memory (generation hoisted out of the seed loop).
    workload = SyntheticWorkload(n_requests=40)
    result = repeat_pair(workload=workload, seeds=(0, 1, 2), vary_trace=False, jobs=1)
    assert len(result.comparisons) == 3
    assert GLOBAL_TRACE_CACHE.misses == 1
    assert GLOBAL_TRACE_CACHE.hits == 5


def test_repetition_fixed_trace_identical_across_seeds():
    # With one fixed trace, every PF run answers the same request count
    # over the same byte volume -- only simulation jitter may differ.
    workload = SyntheticWorkload(n_requests=40)
    result = repeat_pair(workload=workload, seeds=(0, 1), vary_trace=False, jobs=1)
    counts = {c.pf.response_times.count for c in result.comparisons}
    assert counts == {40}


def test_repetition_varied_traces_differ():
    workload = SyntheticWorkload(n_requests=40)
    result = repeat_pair(workload=workload, seeds=(0, 1), vary_trace=True, jobs=1)
    assert GLOBAL_TRACE_CACHE.misses == 2  # one fresh trace per seed
    a, b = result.comparisons
    assert a.pf.energy_j != b.pf.energy_j
