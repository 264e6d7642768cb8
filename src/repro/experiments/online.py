"""The oracle-vs-online ablation (`eevfs online`).

The repo's single biggest open question about the paper: how much of
the oracle-driven ≈17% energy savings survives when nothing is known
in advance?  For every experiment point three runs share one trace and
seed:

* **oracle** -- the paper's PF mode: popularity from the full trace,
  hints, setup-time prefetch;
* **online** -- ``online_mode``: cold buffers, streaming estimation,
  adaptive K/idle-threshold control, drift-triggered re-prefetch, and
  *no* hints;
* **npf** -- the no-prefetch comparator both are measured against.

The corpus is all four Table-II sweeps plus the Berkeley-web-like trace
plus a drifting-skew workload (the hotspot moves mid-run -- the case an
oracle ranking fundamentally cannot chase, and the reason online mode
exists).  Savings are :func:`~repro.metrics.comparison.compare`'s, each
mode against the point's NPF run; **retention** is the share of the
oracle's savings the online mode keeps.

Determinism: ``eevfs online --json`` writes every run's
:meth:`~repro.core.filesystem.RunResult.record` (energies, transitions,
controller trajectories -- never request ids or wall-clock) as
canonical JSON; CI's online-smoke job runs the same seed twice and
byte-compares the two files with each other and with
``tests/golden/online.json``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.config import EEVFSConfig
from repro.core.filesystem import RunResult
from repro.experiments.study import Results, Study
from repro.experiments.sweeps import _config_for, _workload_for, SWEEPS
from repro.metrics.comparison import compare, PairedComparison
from repro.parallel import JobSpec, TraceSpec
from repro.traces.berkeley import BerkeleyWebWorkload
from repro.traces.nonstationary import DriftingWorkload

#: The ablation corpus: the four Table-II sweeps plus the two trace
#: studies (order is presentation order).
ONLINE_CORPUS = ("data_size", "mu", "inter_arrival", "prefetch_count", "traces")

#: The two trace studies swept under the "traces" pseudo-parameter: the
#: name is also the trace kind.
TRACE_STUDIES = {"berkeley": BerkeleyWebWorkload, "drifting": DriftingWorkload}


def online_config(
    base: Optional[EEVFSConfig] = None, estimator: str = "ema"
) -> EEVFSConfig:
    """The online-mode variant of an oracle config."""
    return replace(
        base if base is not None else EEVFSConfig(),
        online_mode=True,
        online_estimator=estimator,
    )


def online_study(
    sweeps: Optional[Sequence[str]] = None,
    n_requests: int = 1000,
    config: Optional[EEVFSConfig] = None,
    seed: int = 0,
    estimator: str = "ema",
) -> Study:
    """Three runs per point -- ``"oracle"``, ``"online"``, ``"npf"`` --
    keyed ``(sweep, value)``; the trace studies are the values of the
    ``"traces"`` pseudo-sweep.  Every trace has rng seed 1."""
    base = config if config is not None else EEVFSConfig()
    study: Study = {}
    for sweep in ONLINE_CORPUS if sweeps is None else sweeps:
        if sweep != "traces" and sweep not in SWEEPS:
            raise ValueError(
                f"unknown sweep {sweep!r}; options: {sorted(SWEEPS)} + ['traces']"
            )
        for value in TRACE_STUDIES if sweep == "traces" else SWEEPS[sweep][1]:
            if sweep == "traces":
                workload = TRACE_STUDIES[value](n_requests=n_requests)
                trace, oracle = TraceSpec(workload=workload), base
            else:
                trace = TraceSpec(workload=_workload_for(sweep, value, n_requests))
                oracle = _config_for(sweep, value, base)
            study[(sweep, value)] = {
                run: JobSpec(trace=trace, config=cfg, seed=seed)
                for run, cfg in (
                    ("oracle", oracle.as_pf()),
                    ("online", online_config(oracle, estimator=estimator)),
                    ("npf", oracle.as_npf()),
                )
            }
    return study


def retention(
    oracle: PairedComparison, online: PairedComparison
) -> Optional[float]:
    """Share of the oracle's savings the online mode keeps (None if the
    oracle saved nothing at this point -- no baseline to retain)."""
    if oracle.energy_savings_pct <= 0.0:
        return None
    return online.energy_savings_pct / oracle.energy_savings_pct


def _comparisons(runs: Dict[str, RunResult]) -> Tuple[PairedComparison, PairedComparison]:
    """The point's oracle and online runs, each against its NPF run."""
    return compare(runs["oracle"], runs["npf"]), compare(runs["online"], runs["npf"])


def online_rows(points: Dict[Hashable, Dict[str, RunResult]]) -> List[List[object]]:
    """One report row per point of one sweep (points keyed by value)."""
    rows: List[List[object]] = []
    for value, runs in points.items():
        oracle, online = _comparisons(runs)
        kept = retention(oracle, online)
        stats = runs["online"].online
        rows.append(
            [
                value,
                oracle.energy_savings_pct,
                online.energy_savings_pct,
                "-" if kept is None else f"{kept:.2f}",
                oracle.response_penalty_pct,
                online.response_penalty_pct,
                "-" if stats is None else f"{stats.k_initial}->{stats.k_final}",
                0 if stats is None else stats.replans_triggered,
            ]
        )
    return rows


ABLATION_HEADERS = [
    "value",
    "oracle_save_%",
    "online_save_%",
    "retention",
    "oracle_lat_%",
    "online_lat_%",
    "K",
    "replans",
]


def retention_summary(results: Results) -> Dict[str, float]:
    """Headline numbers: mean savings and mean retention over every point
    (sweeps in name order).

    ``retention`` averages only the points where the oracle actually
    saved energy (elsewhere there is nothing to retain).
    """
    pairs = [
        _comparisons(runs)
        for _, runs in sorted(results.items(), key=lambda item: item[0][0])
    ]
    if not pairs:
        raise ValueError("empty ablation")
    retained = [kept for kept in (retention(*p) for p in pairs) if kept is not None]
    return {
        "points": float(len(pairs)),
        "oracle_savings_mean_pct": sum(o.energy_savings_pct for o, _ in pairs)
        / len(pairs),
        "online_savings_mean_pct": sum(n.energy_savings_pct for _, n in pairs)
        / len(pairs),
        "retention_mean": (
            sum(retained) / len(retained) if retained else 0.0
        ),
    }
