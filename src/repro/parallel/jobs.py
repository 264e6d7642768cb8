"""Picklable job descriptions for experiment fan-out.

A :class:`JobSpec` is the *complete* recipe for one independent run:
workload parameters, seeds, configuration, cluster, fault schedule and
mode.  Workers receive only the spec -- never a generated trace -- and
rebuild the trace locally from its :class:`TraceSpec` via the
process-wide trace cache.  That keeps pickles small (a few hundred
bytes) and guarantees the worker executes exactly the same code path as
an in-process run, which is what makes serial and parallel execution
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.core.config import ClusterSpec, EEVFSConfig
from repro.faults.schedule import FaultSchedule
from repro.traces.cache import cached_trace

#: Execution modes understood by :func:`execute_job`.
MODES = ("eevfs", "baseline")


@dataclass(frozen=True)
class TraceSpec:
    """How to (re)generate a trace: kind + workload dataclass + rng seed."""

    kind: str = "synthetic"
    workload: Any = None
    seed: int = 1

    def generate(self) -> Any:
        """Materialise the trace (memoised per process)."""
        workload = self.workload
        if workload is None:
            from repro.traces.synthetic import SyntheticWorkload

            workload = SyntheticWorkload()
        return cached_trace(self.kind, workload, self.seed)


@dataclass(frozen=True)
class JobSpec:
    """One run, safe to send to a worker process.

    ``mode`` selects what runs, and either way the job returns a
    ``RunResult``:

    * ``"eevfs"`` -- :func:`~repro.core.filesystem.run_eevfs` with the
      spec's config, cluster, seed, replay mode and fault schedule;
    * ``"baseline"`` -- one comparator from :mod:`repro.baselines`
      (``baseline`` names the ``run_*`` function, ``baseline_kwargs``
      carries extra keyword arguments as sorted ``(key, value)`` pairs).

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
    mode: str = "eevfs"
    replay_mode: str = "paced"
    faults: Optional[FaultSchedule] = None
    baseline: Optional[str] = None
    baseline_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; options: {MODES}")
        if self.mode == "baseline" and not self.baseline:
            raise ValueError("baseline mode requires a baseline name")
        if self.mode == "baseline" and self.faults is not None:
            raise ValueError("baseline runs take no fault schedule")


class JobFailed(RuntimeError):
    """A job raised (in-process or in a worker); names the failing spec."""

    def __init__(self, spec: JobSpec, cause: BaseException) -> None:
        super().__init__(
            f"job {spec.label!r} failed "
            f"(mode={spec.mode}, seed={spec.seed}, trace={spec.trace.kind}"
            f"/{spec.trace.seed}): {type(cause).__name__}: {cause}"
        )
        self.spec = spec
        self.cause = cause


def execute_job(spec: JobSpec) -> Any:
    """Run one :class:`JobSpec` and return its result.

    This is the single execution path for *both* serial and parallel
    runs -- the pool maps it over workers, ``jobs=1`` calls it inline --
    so results cannot depend on where the job ran.
    """
    trace = spec.trace.generate()
    if spec.mode == "eevfs":
        from repro.core.filesystem import run_eevfs

        return run_eevfs(
            trace,
            config=spec.config,
            cluster=spec.cluster,
            seed=spec.seed,
            replay_mode=spec.replay_mode,
            faults=spec.faults,
        )
    # baseline
    import repro.baselines as baselines

    runner = getattr(baselines, f"run_{spec.baseline}", None)
    if runner is None:
        raise ValueError(f"unknown baseline {spec.baseline!r}")
    # Baseline signatures differ in how they name the cluster argument,
    # so anything beyond (trace, seed) travels via baseline_kwargs.
    return runner(trace, seed=spec.seed, **dict(spec.baseline_kwargs))
