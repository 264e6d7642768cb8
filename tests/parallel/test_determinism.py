"""Parallel execution must be invisible in the results.

The contract under test: for any job batch, ``jobs=N`` returns exactly
what ``jobs=1`` returns -- same values, same order -- because workers
regenerate traces from seeds and run the identical ``execute_job`` path.
"""

import pytest

from repro.core.filesystem import canonical_json
from repro.experiments.sweeps import run_sweep, SWEEPS
from repro.parallel import JobSpec, run_jobs, TraceSpec
from repro.traces.synthetic import SyntheticWorkload

N_REQUESTS = 60  # tiny traces: 4 sweeps x 2 values x PF/NPF stays fast


def _records(comparison):
    return canonical_json([comparison.pf.record(), comparison.npf.record()])


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_identical_serial_vs_parallel(sweep):
    values = SWEEPS[sweep][1][:2]
    serial = run_sweep(sweep, values=values, n_requests=N_REQUESTS, jobs=1)
    parallel = run_sweep(sweep, values=values, n_requests=N_REQUESTS, jobs=4)
    assert [p.value for p in serial] == [p.value for p in parallel]
    for a, b in zip(serial, parallel, strict=True):
        assert _records(a.comparison) == _records(b.comparison)


def test_result_order_matches_spec_order_not_completion_order():
    # Workload sizes descend, so later (smaller) jobs finish first in a
    # pool; results must still come back in submission order.
    sizes = [120, 80, 40, 20]
    specs = [
        JobSpec(
            label=f"n={n}",
            trace=TraceSpec(workload=SyntheticWorkload(n_requests=n)),
            seed=0,
        )
        for n in sizes
    ]
    results = run_jobs(specs, jobs=4)
    assert [c.pf.response_times.count for c in results] == sizes


def test_progress_callback_reports_every_job():
    specs = [
        JobSpec(
            label=f"seed={seed}",
            trace=TraceSpec(workload=SyntheticWorkload(n_requests=30)),
            seed=seed,
        )
        for seed in range(3)
    ]
    seen = []
    run_jobs(specs, jobs=2, progress=lambda done, total, spec: seen.append((done, total, spec.label)))
    assert [d for d, _, _ in seen] == [1, 2, 3]
    assert all(total == 3 for _, total, _ in seen)
    assert {label for _, _, label in seen} == {"seed=0", "seed=1", "seed=2"}
