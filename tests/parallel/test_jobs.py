"""JobSpec construction, execution, and failure attribution."""

from dataclasses import dataclass

import pytest

from repro.baselines.drpm import drpm_cluster, DRPMNode
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


@dataclass
class GhostWorkload:
    """A workload no trace generator knows."""

    n_requests: int = 30


def test_eevfs_mode_returns_run_result():
    result = execute_job(JobSpec(label="single", trace=SMALL))
    assert isinstance(result, RunResult)


def test_build_wires_the_specs_cluster_and_node_class():
    spec = JobSpec(cluster=drpm_cluster(), seed=3, node_class=DRPMNode)
    cluster = spec.build()
    assert all(type(node) is DRPMNode for node in cluster.nodes)
    assert cluster.cluster is spec.cluster
    assert cluster.seed == 3
    assert cluster.observer is None
    assert spec.build(obs=True).observer is not None


def test_faults_travel_with_the_spec():
    schedule = FaultSchedule().disk_fail("node1/data0", at=1.0)
    result = execute_job(JobSpec(trace=SMALL, faults=schedule))
    assert [(r.kind, r.target) for r in result.fault_log] == [("disk_fail", "node1/data0")]
    assert execute_job(JobSpec(trace=SMALL)).fault_log is None


@pytest.mark.parametrize("jobs", [1, 4])
def test_failing_job_names_the_spec(jobs):
    specs = [
        JobSpec(label="fine", trace=SMALL),
        JobSpec(label="doomed", trace=TraceSpec(workload=GhostWorkload())),
    ]
    with pytest.raises(JobFailed, match="doomed") as info:
        run_jobs(specs, jobs=jobs)
    assert info.value.spec.label == "doomed"
    assert "trace=GhostWorkload/1" in str(info.value)


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
