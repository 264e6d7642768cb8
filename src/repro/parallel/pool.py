"""Process-pool execution of :class:`~repro.parallel.jobs.JobSpec` lists.

The contract :func:`run_jobs` keeps, regardless of worker count:

* **Deterministic order** -- results come back in spec order, never in
  completion order.
* **Identical results** -- workers run the same :func:`execute_job` the
  serial path runs; a job's outcome cannot depend on where it ran.
* **Graceful degradation** -- ``jobs=1`` (or a pool that cannot start,
  e.g. under a sandbox that forbids fork) executes inline in this
  process with no multiprocessing machinery at all.
* **Attributable failure** -- a crashing job raises
  :class:`~repro.parallel.jobs.JobFailed` naming the spec's label and
  seeds, so a sweep dying at point 37 says *which* point.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.parallel.jobs import execute_job, JobFailed, JobSpec


def default_jobs() -> int:
    """Worker count used when the caller does not choose: one per CPU."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int], n_specs: int) -> int:
    """Normalise a requested worker count against the amount of work."""
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    return max(1, min(jobs, n_specs))


def _run_serial(specs: List[JobSpec]) -> List[object]:
    results: List[object] = []
    for spec in specs:
        try:
            results.append(execute_job(spec))
        except Exception as exc:
            raise JobFailed(spec, exc) from exc
    return results


def run_jobs(specs: Sequence[JobSpec], jobs: Optional[int] = None) -> List[object]:
    """Execute every spec and return results in spec order.

    ``jobs=None`` uses one worker per CPU; ``jobs=1`` runs inline.
    """
    specs = list(specs)
    if not specs:
        return []
    jobs = resolve_jobs(jobs, len(specs))
    if jobs == 1:
        return _run_serial(specs)

    try:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(max_workers=jobs)
    except (ImportError, NotImplementedError, OSError, PermissionError):
        # No usable multiprocessing here (restricted environment):
        # degrade to the inline path rather than failing the experiment.
        return _run_serial(specs)

    results: List[object] = [None] * len(specs)
    with pool:
        try:
            futures = {
                pool.submit(execute_job, spec): index
                for index, spec in enumerate(specs)
            }
        except BrokenProcessPool:
            pool.shutdown(wait=False, cancel_futures=True)
            return _run_serial(specs)
        try:
            for future in as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                except Exception as exc:
                    raise JobFailed(specs[index], exc) from exc
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return results
