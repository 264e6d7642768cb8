"""JobSpec construction, execution modes, and failure attribution."""

import pytest

from repro.core.filesystem import RunResult
from repro.faults import FaultSchedule
from repro.parallel import (
    execute_job,
    JobFailed,
    JobSpec,
    resolve_jobs,
    run_jobs,
    TraceSpec,
)
from repro.traces.synthetic import SyntheticWorkload

SMALL = TraceSpec(workload=SyntheticWorkload(n_requests=30))


def test_eevfs_mode_returns_run_result():
    result = execute_job(JobSpec(label="single", trace=SMALL, mode="eevfs"))
    assert isinstance(result, RunResult)


def test_baseline_mode_runs_named_comparator():
    result = execute_job(
        JobSpec(label="npf", trace=SMALL, mode="baseline", baseline="npf")
    )
    assert isinstance(result, RunResult)
    assert result.transitions == 0  # NPF never spins disks down


def test_unknown_mode_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown mode"):
        JobSpec(label="bad", trace=SMALL, mode="warp")


def test_baseline_mode_requires_name():
    with pytest.raises(ValueError, match="baseline name"):
        JobSpec(label="bad", trace=SMALL, mode="baseline")


def test_baseline_mode_rejects_faults():
    with pytest.raises(ValueError, match="fault schedule"):
        JobSpec(
            trace=SMALL,
            mode="baseline",
            baseline="npf",
            faults=FaultSchedule().disk_fail("node1/data0", at=1.0),
        )


def test_faults_travel_with_the_spec():
    schedule = FaultSchedule().disk_fail("node1/data0", at=1.0)
    result = execute_job(JobSpec(trace=SMALL, faults=schedule))
    assert [(r.kind, r.target) for r in result.fault_log] == [("disk_fail", "node1/data0")]
    assert execute_job(JobSpec(trace=SMALL)).fault_log is None


@pytest.mark.parametrize("jobs", [1, 4])
def test_failing_job_names_the_spec(jobs):
    specs = [
        JobSpec(label="fine", trace=SMALL),
        JobSpec(label="doomed", trace=SMALL, mode="baseline", baseline="ghost"),
    ]
    with pytest.raises(JobFailed, match="doomed") as info:
        run_jobs(specs, jobs=jobs)
    assert info.value.spec.label == "doomed"
    assert "ghost" in str(info.value)


def test_resolve_jobs_clamps_to_work():
    assert resolve_jobs(8, 3) == 3
    assert resolve_jobs(2, 100) == 2
    assert resolve_jobs(None, 1) == 1
    with pytest.raises(ValueError):
        resolve_jobs(0, 5)


def test_empty_batch_returns_empty():
    assert run_jobs([], jobs=4) == []


def test_replay_mode_travels_with_the_spec():
    paced = execute_job(JobSpec(label="paced", trace=SMALL))
    closed = execute_job(JobSpec(label="closed", trace=SMALL, replay_mode="closed"))
    # Closed replay reshapes the arrival process, so the runs must
    # actually differ.
    assert paced.end_s != closed.end_s
