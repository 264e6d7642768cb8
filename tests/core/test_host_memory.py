"""Host memory a run keeps per request stays flat in trace length.

Settled requests leave no client state, per-request records carry no
``__dict__``, and the logs that live for a whole run are typed arrays,
so what a finished ``paper_default``-shaped run still holds grows by a
few machine words per request.  The trace itself is built before
tracing starts and is not counted.
"""

import gc
import tracemalloc

import numpy as np

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload

#: Retained bytes allowed per extra request.  Dict entries, boxed floats
#: and per-record ``__dict__``s cost about 500 B a request; what is meant
#: to stay (a response-time sample, an issued id, hint-stream and
#: access-log entries) is about 50 B.
MAX_BYTES_PER_REQUEST = 150


def retained_bytes(n_requests):
    """Traced bytes still held after a finished run of *n_requests*."""
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=n_requests), rng=np.random.default_rng(1)
    )
    gc.collect()
    tracemalloc.start()
    try:
        cluster = EEVFSCluster(config=EEVFSConfig(), seed=1)
        result = cluster.run(trace)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.requests_total == n_requests
    return held


def test_retained_memory_per_request_is_a_few_words():
    small, large = retained_bytes(400), retained_bytes(1600)
    per_request = (large - small) / 1200
    assert per_request <= MAX_BYTES_PER_REQUEST, f"{per_request:.0f} B per request"
