"""Picklable job descriptions for experiment fan-out.

A :class:`JobSpec` is the *complete* recipe for one independent run:
workload parameters, seeds, configuration, cluster, node class and
fault schedule.  Workers receive only the spec -- never a generated
trace -- and rebuild the trace locally from its :class:`TraceSpec` via
the process-wide trace cache.  That keeps pickles small (a few hundred
bytes) and guarantees the worker executes exactly the same code path as
an in-process run, which is what makes serial and parallel execution
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Type

from repro.core.config import ClusterSpec, EEVFSConfig
from repro.core.filesystem import EEVFSCluster, RunResult
from repro.core.node import StorageNode
from repro.faults.schedule import FaultSchedule
from repro.traces.cache import cached_trace
from repro.traces.synthetic import SyntheticWorkload


@dataclass(frozen=True)
class TraceSpec:
    """How to (re)generate a trace: workload dataclass + rng seed (the
    workload's type picks the generator)."""

    workload: Any = field(default_factory=SyntheticWorkload)
    seed: int = 1

    def generate(self) -> Any:
        """Materialise the trace (memoised per process)."""
        return cached_trace(self.workload, self.seed)


@dataclass(frozen=True)
class JobSpec:
    """One run, safe to send to a worker process.

    The spec names everything :class:`~repro.core.filesystem.EEVFSCluster`
    takes -- config, cluster, seed, node class and fault schedule -- plus
    the trace and the replay mode, so every comparator and scenario is
    one spec (:mod:`repro.baselines` builds the configs, clusters and
    node classes).

    ``label`` exists purely for humans: progress lines and error
    messages quote it so a failure points at the exact experiment point
    (:func:`~repro.experiments.study.run_study` sets it to the point and
    run names).
    """

    label: str = ""
    trace: TraceSpec = field(default_factory=TraceSpec)
    config: Optional[EEVFSConfig] = None
    cluster: Optional[ClusterSpec] = None
    seed: int = 0
    replay_mode: str = "paced"
    faults: Optional[FaultSchedule] = None
    node_class: Type[StorageNode] = StorageNode

    def build(self, obs: bool = False) -> EEVFSCluster:
        """The cluster this spec runs, wired but not yet started."""
        return EEVFSCluster(
            cluster=self.cluster,
            config=self.config,
            seed=self.seed,
            node_class=self.node_class,
            faults=self.faults,
            obs=obs,
        )


class JobFailed(RuntimeError):
    """A job raised (in-process or in a worker); names the failing spec."""

    def __init__(self, spec: JobSpec, cause: BaseException) -> None:
        super().__init__(
            f"job {spec.label!r} failed "
            f"(seed={spec.seed}, trace={type(spec.trace.workload).__name__}"
            f"/{spec.trace.seed}): {type(cause).__name__}: {cause}"
        )
        self.spec = spec
        self.cause = cause


def execute_job(spec: JobSpec) -> RunResult:
    """Run one :class:`JobSpec` and return its result.

    This is the single execution path for *both* serial and parallel
    runs -- the pool maps it over workers, ``jobs=1`` calls it inline --
    so results cannot depend on where the job ran.
    """
    return spec.build().run(spec.trace.generate(), replay_mode=spec.replay_mode)
