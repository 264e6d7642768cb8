"""Studies: every experiment as named points of named runs.

Each point of the evaluation is a few runs over one trace -- most often
the PF/NPF pair of §V-B.  A *study* is an ordered ``{point: {run:
JobSpec}}``; :func:`run_study` submits every run of every point as one
:func:`~repro.parallel.pool.run_jobs` batch and hands back ``{point:
{run: RunResult}}`` in study order.  Studies compose by merging dicts,
so a command that needs several experiments (the report: sweeps, Fig. 6,
baselines, ablations) runs them all in one batch under ``--jobs``.

Points are named by any hashable key.  A point that belongs to a family
(one sweep, one ablation) is keyed ``(family, x)``, and :func:`group`
selects the family's points by their ``x``.  Every PF/NPF delta comes
from :func:`~repro.metrics.comparison.compare`; :func:`records` turns any
nested dict of results into the canonical-JSON records the smoke goldens
pin.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Hashable, Optional

from repro.core.config import ClusterSpec, EEVFSConfig
from repro.core.filesystem import canonical_json, run_eevfs, RunResult
from repro.metrics.comparison import compare, PairedComparison
from repro.parallel import JobSpec, run_jobs
from repro.traces.model import Trace

Study = Dict[Hashable, Dict[str, JobSpec]]
Results = Dict[Hashable, Dict[str, RunResult]]


def pair(spec: JobSpec) -> Dict[str, JobSpec]:
    """The ``"pf"`` and ``"npf"`` runs of *spec*'s config (the default
    config when it sets none) over *spec*'s trace."""
    config = spec.config or EEVFSConfig()
    return {
        "pf": replace(spec, config=config.as_pf()),
        "npf": replace(spec, config=config.as_npf()),
    }


def run_study(study: Study, jobs: Optional[int] = 1) -> Results:
    """Run every run of every point as one job batch.

    ``jobs`` is the worker count (``None`` = one per CPU); the results
    are identical at any count.  Each job is labelled ``point:run``, so a
    failure names the point it belongs to.
    """
    specs = [
        replace(spec, label=f"{point}:{run}")
        for point, runs in study.items()
        for run, spec in runs.items()
    ]
    results = iter(run_jobs(specs, jobs=jobs))
    return {point: {run: next(results) for run in runs} for point, runs in study.items()}


def group(results: Dict[Hashable, Any], family: str) -> Dict[Hashable, Any]:
    """The points keyed ``(family, x)``, keyed by ``x``, in study order."""
    return {
        key[1]: runs
        for key, runs in results.items()
        if isinstance(key, tuple) and key[0] == family
    }


def compared(results: Results) -> Dict[Hashable, PairedComparison]:
    """Each point's PF/NPF comparison."""
    return {point: compare(runs["pf"], runs["npf"]) for point, runs in results.items()}


def records(tree: Dict[Hashable, Any]) -> str:
    """Canonical JSON of a nested dict whose leaves are results: every
    key becomes a string and every run its
    :meth:`~repro.core.filesystem.RunResult.record`."""

    def plain(node: Any) -> Any:
        if isinstance(node, dict):
            return {str(key): plain(value) for key, value in node.items()}
        return node.record()

    return canonical_json(plain(tree))


def run_pair(
    trace: Trace,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
) -> PairedComparison:
    """Run PF and NPF over an in-memory *trace*, here and now, and compare.

    For the paths that cannot be a study: a search whose next probe
    depends on the last, a caller that times its own runs, or a trace
    that no :class:`~repro.parallel.jobs.TraceSpec` describes.
    """
    config = config or EEVFSConfig()
    pf = run_eevfs(trace, config.as_pf(), cluster, seed)
    npf = run_eevfs(trace, config.as_npf(), cluster, seed)
    return compare(pf, npf)
