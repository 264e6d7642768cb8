"""A trace is three typed columns, and the run path reads them directly.

A generated trace holds a timestamp, a file id and a write flag per
request in ``array``s, so its retained memory grows by about 17 bytes a
request.  Generators fill the columns from their draws, and the client,
the server's hint assembly and the oracle ranking read them in place:
generating a trace and running it builds no :class:`TraceRequest`.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.experiments.metaplane import drill_config, drill_trace, leader_crash_schedule
from repro.traces import (
    DiurnalWorkload,
    DriftingWorkload,
    generate_diurnal_trace,
    generate_drifting_trace,
    generate_synthetic_trace,
    SyntheticWorkload,
    TraceRequest,
)

#: Retained bytes allowed per extra request: the three columns are 17 B
#: (8 + 8 + 1) plus the arrays' growth slack.  A list of frozen records
#: cost about 100 B a request.
MAX_BYTES_PER_REQUEST = 24


def retained_bytes(n_requests):
    """Traced bytes a freshly generated synthetic trace holds."""
    gc.collect()
    tracemalloc.start()
    try:
        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=n_requests), rng=np.random.default_rng(1)
        )
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert trace.n_requests == n_requests
    return held


def test_trace_memory_per_request_is_its_columns():
    retained_bytes(100)  # one-time imports and caches are not the trace's
    small, large = retained_bytes(12_000), retained_bytes(24_000)
    per_request = (large - small) / 12_000
    assert per_request <= MAX_BYTES_PER_REQUEST, f"{per_request:.1f} B per request"


@pytest.fixture
def no_request_records(monkeypatch):
    """Fail wherever a TraceRequest is built."""

    def forbidden(self):
        raise AssertionError(f"built a TraceRequest: {self.time_s!r}, {self.file_id!r}")

    monkeypatch.setattr(TraceRequest, "__post_init__", forbidden)


def _synthetic(n):
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=n, write_fraction=0.4), rng=np.random.default_rng(1)
    )


@pytest.mark.parametrize("mode", ["open", "paced", "closed"])
def test_replay_builds_no_request_records(no_request_records, mode):
    trace = _synthetic(200)
    result = EEVFSCluster(config=EEVFSConfig(), seed=1).run(trace, replay_mode=mode)
    assert result.requests_total == 200


#: name -> (trace maker, config, fault schedule maker): the four
#: benchmark workload shapes, plus the diurnal generator.
RUNS = {
    "oracle": (_synthetic, lambda: EEVFSConfig(), lambda: None),
    "ssd-writes": (
        _synthetic,
        lambda: EEVFSConfig(buffer_backend="ssd", ssd_capacity_mb=32, ssd_buffer_idle_s=2.0),
        lambda: None,
    ),
    "online-drift": (
        lambda n: generate_drifting_trace(
            DriftingWorkload(n_requests=n), rng=np.random.default_rng(1)
        ),
        lambda: EEVFSConfig(online_mode=True),
        lambda: None,
    ),
    "metaplane-chaos": (
        lambda n: drill_trace(n_requests=n, trace_seed=1),
        lambda: drill_config(3),
        lambda: leader_crash_schedule(4),
    ),
    "diurnal": (
        lambda n: generate_diurnal_trace(
            DiurnalWorkload(n_requests=n), rng=np.random.default_rng(1)
        ),
        lambda: EEVFSConfig(),
        lambda: None,
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_generate_and_run_build_no_request_records(no_request_records, name):
    make_trace, config, faults = RUNS[name]
    trace = make_trace(200)
    result = EEVFSCluster(config=config(), seed=1, faults=faults()).run(trace)
    assert result.requests_total + result.requests_failed == 200
