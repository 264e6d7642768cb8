"""The four Table-II parameter sweeps.

One set of runs feeds Figs. 3, 4 *and* 5 -- the paper plots the same
experiments three ways (energy, transitions, response time), so
:func:`sweep_study` describes each (sweep, value) pair exactly once and
the figure modules slice the shared results.

Fixed defaults per §VI: data size 10 MB, MU 1000, inter-arrival 700 ms,
K=70, idle threshold 5 s, 1000 files.  ``n_requests`` shrinks the trace
for quick runs (tests use it); 1000 is the paper's scale.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

from repro.core.config import EEVFSConfig, PARAMETER_GRID
from repro.experiments.study import pair, Study
from repro.parallel import JobSpec, TraceSpec
from repro.traces.synthetic import MB, SyntheticWorkload

#: Sweep name -> (workload/config field, Table-II values).
SWEEPS = {
    "data_size": ("data_size_mb", PARAMETER_GRID["data_size_mb"]),
    "mu": ("mu", PARAMETER_GRID["mu"]),
    "inter_arrival": ("inter_arrival_ms", PARAMETER_GRID["inter_arrival_ms"]),
    "prefetch_count": ("prefetch_files", PARAMETER_GRID["prefetch_files"]),
}


def _workload_for(sweep: str, value: object, n_requests: int) -> SyntheticWorkload:
    base = SyntheticWorkload(n_requests=n_requests)
    if sweep == "data_size":
        return replace(base, data_size_bytes=int(value) * MB)
    if sweep == "mu":
        return replace(base, mu=float(value))
    if sweep == "inter_arrival":
        return replace(base, inter_arrival_s=float(value) / 1000.0)
    if sweep == "prefetch_count":
        return base  # the knob lives in EEVFSConfig, not the workload
    raise ValueError(f"unknown sweep: {sweep!r}")


def _config_for(sweep: str, value: object, base: EEVFSConfig) -> EEVFSConfig:
    if sweep == "prefetch_count":
        return replace(base, prefetch_files=int(value))
    return base


def sweep_study(
    n_requests: int = 1000,
    seed: int = 0,
    sweeps: Optional[Mapping[str, Sequence[object]]] = None,
) -> Study:
    """The Table-II corpus (Figs. 3-5): one PF/NPF pair per point, keyed
    ``(sweep, value)``.

    ``sweeps`` maps sweep names to the values to run (default: all four
    sweeps at their Table-II values).
    """
    if sweeps is None:
        sweeps = {name: values for name, (_, values) in SWEEPS.items()}
    return {
        (sweep, value): pair(
            JobSpec(
                trace=TraceSpec(workload=_workload_for(sweep, value, n_requests)),
                config=_config_for(sweep, value, EEVFSConfig()),
                seed=seed,
            )
        )
        for sweep, values in sweeps.items()
        for value in values
    }
