"""Parallel execution must be invisible in the results.

The contract under test: for any job batch, ``jobs=N`` returns exactly
what ``jobs=1`` returns -- same values, same order -- because workers
regenerate traces from seeds and run the identical ``execute_job`` path.
"""

import pytest

from repro.experiments.baseline_suite import baseline_study, BASELINES
from repro.experiments.metaplane import metaplane_study
from repro.experiments.study import records, run_study
from repro.experiments.sweeps import sweep_study, SWEEPS
from repro.parallel import JobSpec, run_jobs, TraceSpec
from repro.traces.synthetic import SyntheticWorkload

N_REQUESTS = 60  # tiny traces: 4 sweeps x 2 values x PF/NPF stays fast


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_identical_serial_vs_parallel(sweep):
    study = sweep_study(sweeps={sweep: SWEEPS[sweep][1][:2]}, n_requests=N_REQUESTS)
    serial = run_study(study, jobs=1)
    parallel = run_study(study, jobs=4)
    assert list(serial) == list(parallel)
    assert records(serial) == records(parallel)


def test_faulted_study_identical_serial_vs_parallel():
    """The metadata drill carries a leader-crash schedule in every job;
    it must reach the workers intact, so both fault logs are the same."""
    study = metaplane_study(shard_counts=(4,), replica_counts=(1, 3), n_requests=200)
    serial = run_study(study, jobs=1)
    parallel = run_study(study, jobs=2)
    assert records(serial) == records(parallel)
    for run in parallel[4].values():
        # Crashes land at 20, 60, 100 and 140 s; this trace ends before
        # the last one.
        kinds = [record.kind for record in run.fault_log]
        assert kinds.count("meta_leader_fail") == 3


def test_baseline_study_identical_serial_vs_parallel():
    """Each comparator's node class and cluster reach the workers: MAID's
    LRU cache disk serves hits with prefetching off, and low-power drives
    draw less than the stock disks under the same NPF policy."""
    study = baseline_study(n_requests=N_REQUESTS)
    serial = run_study(study, jobs=1)
    parallel = run_study(study, jobs=2)
    assert records(serial) == records(parallel)
    runs = parallel[BASELINES]
    assert runs["MAID"].buffer_hits > 0
    assert runs["Low-power HW"].energy_j < runs["EEVFS-NPF"].energy_j


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
    assert [r.response_times.count for r in results] == sizes


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
