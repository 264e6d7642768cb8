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
exists).  ``savings = (npf - pf) / npf``; **retention** is the share of
the oracle's savings the online mode keeps.

Determinism: ``eevfs online --json`` writes every run's
:meth:`~repro.core.filesystem.RunResult.record` (energies, transitions,
controller trajectories -- never request ids or wall-clock) as
canonical JSON; CI's online-smoke job runs the same seed twice and
byte-compares the two files with each other and with
``tests/golden/online.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ClusterSpec, EEVFSConfig
from repro.core.filesystem import RunResult
from repro.experiments.sweeps import _config_for, _workload_for, SWEEPS
from repro.parallel import JobSpec, run_jobs, TraceSpec
from repro.traces.berkeley import BerkeleyWebWorkload
from repro.traces.nonstationary import DriftingWorkload

#: The ablation corpus: the four Table-II sweeps plus the two trace
#: studies (order is presentation order).
ONLINE_CORPUS = ("data_size", "mu", "inter_arrival", "prefetch_count", "traces")

#: The two trace studies swept under the "traces" pseudo-parameter.
TRACE_STUDIES = ("berkeley", "drifting")


def online_config(
    base: Optional[EEVFSConfig] = None, estimator: str = "ema"
) -> EEVFSConfig:
    """The online-mode variant of an oracle config."""
    return replace(
        base if base is not None else EEVFSConfig(),
        online_mode=True,
        online_estimator=estimator,
    )


@dataclass
class OnlinePoint:
    """One experiment point: oracle vs online vs npf over one trace."""

    parameter: str
    value: object
    oracle: RunResult
    online: RunResult
    npf: RunResult

    @staticmethod
    def _savings_pct(pf_energy: float, npf_energy: float) -> float:
        return (
            100.0 * (npf_energy - pf_energy) / npf_energy if npf_energy > 0 else 0.0
        )

    @property
    def oracle_savings_pct(self) -> float:
        """Oracle PF energy savings vs NPF (the paper's headline)."""
        return self._savings_pct(self.oracle.energy_j, self.npf.energy_j)

    @property
    def online_savings_pct(self) -> float:
        """Online-mode energy savings vs NPF (no hindsight)."""
        return self._savings_pct(self.online.energy_j, self.npf.energy_j)

    @property
    def retention(self) -> Optional[float]:
        """Share of oracle savings the online mode keeps (None if the
        oracle saved nothing at this point -- no baseline to retain)."""
        oracle = self.oracle_savings_pct
        if oracle <= 0.0:
            return None
        return self.online_savings_pct / oracle

    @property
    def oracle_latency_penalty_pct(self) -> float:
        npf = self.npf.mean_response_s
        return 100.0 * (self.oracle.mean_response_s - npf) / npf if npf > 0 else 0.0

    @property
    def online_latency_penalty_pct(self) -> float:
        npf = self.npf.mean_response_s
        return 100.0 * (self.online.mean_response_s - npf) / npf if npf > 0 else 0.0


def _trace_spec_for(
    sweep: str, value: object, n_requests: int, trace_seed: int
) -> TraceSpec:
    if sweep == "traces":
        if value == "berkeley":
            return TraceSpec(
                kind="berkeley",
                workload=BerkeleyWebWorkload(n_requests=n_requests),
                seed=trace_seed,
            )
        if value == "drifting":
            return TraceSpec(
                kind="drifting",
                workload=DriftingWorkload(n_requests=n_requests),
                seed=trace_seed,
            )
        raise ValueError(f"unknown trace study {value!r}; options: {TRACE_STUDIES}")
    return TraceSpec(
        workload=_workload_for(sweep, value, n_requests), seed=trace_seed
    )


def ablation_specs(
    sweeps: Optional[Sequence[str]] = None,
    n_requests: int = 1000,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
    trace_seed: int = 1,
    estimator: str = "ema",
) -> Tuple[List[Tuple[str, object]], List[JobSpec]]:
    """Describe the ablation as single-run jobs (three per point).

    Returns ``(points, specs)`` where ``points`` is the flat
    ``(sweep, value)`` list and ``specs`` holds oracle/online/npf jobs
    in that order for each point.
    """
    selected = list(sweeps) if sweeps is not None else list(ONLINE_CORPUS)
    base = config if config is not None else EEVFSConfig()
    points: List[Tuple[str, object]] = []
    for sweep in selected:
        if sweep == "traces":
            points.extend(("traces", study) for study in TRACE_STUDIES)
        elif sweep in SWEEPS:
            points.extend((sweep, value) for value in SWEEPS[sweep][1])
        else:
            raise ValueError(
                f"unknown sweep {sweep!r}; options: {sorted(SWEEPS)} + ['traces']"
            )
    specs: List[JobSpec] = []
    for sweep, value in points:
        trace = _trace_spec_for(sweep, value, n_requests, trace_seed)
        oracle = (
            _config_for(sweep, value, base) if sweep in SWEEPS else base
        )
        for system, cfg in (
            ("oracle", oracle.as_pf()),
            ("online", online_config(oracle, estimator=estimator)),
            ("npf", oracle.as_npf()),
        ):
            specs.append(
                JobSpec(
                    label=f"online:{sweep}={value}:{system}",
                    trace=trace,
                    config=cfg,
                    cluster=cluster,
                    seed=seed,
                    mode="eevfs",
                )
            )
    return points, specs


def online_ablation(
    sweeps: Optional[Sequence[str]] = None,
    n_requests: int = 1000,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
    estimator: str = "ema",
) -> Dict[str, List[OnlinePoint]]:
    """Run the oracle-vs-online ablation; results keyed by sweep name.

    All points are submitted as one job batch (three runs per point), so
    ``jobs > 1`` overlaps everything; results are identical to serial.
    """
    points, specs = ablation_specs(
        sweeps,
        n_requests=n_requests,
        config=config,
        cluster=cluster,
        seed=seed,
        estimator=estimator,
    )
    results = iter(run_jobs(specs, jobs=jobs))
    ablation: Dict[str, List[OnlinePoint]] = {}
    for sweep, value in points:
        oracle, online, npf = next(results), next(results), next(results)
        ablation.setdefault(sweep, []).append(
            OnlinePoint(
                parameter=sweep, value=value, oracle=oracle, online=online, npf=npf
            )
        )
    return ablation


def ablation_rows(points: Sequence[OnlinePoint]) -> List[List[object]]:
    """Flatten one sweep's points into report rows."""
    rows: List[List[object]] = []
    for point in points:
        stats = point.online.online
        rows.append(
            [
                point.value,
                point.oracle_savings_pct,
                point.online_savings_pct,
                "-" if point.retention is None else f"{point.retention:.2f}",
                point.oracle_latency_penalty_pct,
                point.online_latency_penalty_pct,
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


def retention_summary(
    ablation: Dict[str, List[OnlinePoint]],
) -> Dict[str, float]:
    """Headline numbers: mean savings and mean retention per corpus.

    ``retention`` averages only the points where the oracle actually
    saved energy (elsewhere there is nothing to retain).
    """
    points = [point for sweep in sorted(ablation) for point in ablation[sweep]]
    if not points:
        raise ValueError("empty ablation")
    retained = [p.retention for p in points if p.retention is not None]
    return {
        "points": float(len(points)),
        "oracle_savings_mean_pct": sum(p.oracle_savings_pct for p in points)
        / len(points),
        "online_savings_mean_pct": sum(p.online_savings_pct for p in points)
        / len(points),
        "retention_mean": (
            sum(retained) / len(retained) if retained else 0.0
        ),
    }
