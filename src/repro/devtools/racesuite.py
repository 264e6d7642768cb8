"""Whole-model schedule-race suite: the ``eevfs lint --races`` backend.

The engine's chaos scheduler (:meth:`~repro.sim.engine.Simulator.
set_lane_perturbation`) explores alternative-but-legal dispatch orders
within same-``(time, priority)`` windows.  This module drives the full
EEVFS stack through it across seven representative scenarios -- one point
from each of the four Table-II sweeps, the metadata-plane leader-crash
drill, an online-mode run, and an SSD buffer tier under the whole device
fault surface -- and decides, per scenario, whether anything
*illegitimate* depends on dispatch order.

What counts as illegitimate is deliberate.  Whole-cluster metrics are
**not** expected to be bit-invariant under perturbation: synthetic
arrival times are quantised, so same-timestamp requests exist and the
engine's FIFO tie-break decides who is served first -- a legitimate
modelling choice whose knock-on effects (energies, latencies, hit
splits) compound over the run.  What a correct model must preserve
under *every* legal schedule is:

* **completion** -- the run finishes without an exception;
* **conservation** -- every request is accounted for exactly once:
  requests served, reads (buffer hits + data-disk hits), writes
  (buffered + direct), failures, the per-component latency sample
  counts and the node roster are all identical across orderings;
* **reproducibility** -- a perturbed schedule is itself deterministic:
  the same perturbation seed twice gives a bit-identical
  :meth:`~repro.core.filesystem.RunResult.record`.

A use-after-recycle, a dict-order handler race, or an RNG stream keyed
on iteration order breaks one of these three long before anyone reads a
figure.  Observed drift in the *sensitive* metrics is reported (so a
suspicious jump is visible in review) but does not fail the suite.

The suite's JSON output contains only schedule-invariant material --
scenario names, conservation fingerprints, statuses -- so CI can run it
under two different perturbation seeds and ``cmp`` the outputs byte for
byte.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence

from repro.core.config import EEVFSConfig
from repro.core.filesystem import canonical_json, RunResult
from repro.experiments.metaplane import drill_config, leader_crash_schedule
from repro.faults import FaultSchedule
from repro.parallel import execute_job, JobSpec, TraceSpec
from repro.sim.engine import Simulator
from repro.traces.berkeley import BerkeleyWebWorkload
from repro.traces.synthetic import MB, SyntheticWorkload

#: Default perturbation seeds: two is enough to catch order dependence
#: in practice while keeping the suite inside a CI smoke budget.
DEFAULT_RACE_SEEDS = (101, 303)

#: Default request count per scenario -- small enough that all seven
#: scenarios finish in seconds, large enough to exercise contention,
#: prefetch, destaging and (for the drill) a full leader-crash cycle.
DEFAULT_N_REQUESTS = 150


@dataclasses.dataclass
class ScenarioReport:
    """Outcome of one scenario across baseline + all perturbation seeds."""

    name: str
    status: str  # "ok" | "race" | "error"
    served: int
    #: Canonical conservation fingerprint (identical across seeds if ok).
    conservation: str
    #: Human-readable notes: conservation diffs, reproducibility
    #: failures, or the exception that killed a run.
    problems: List[str] = dataclasses.field(default_factory=list)
    #: Observed (legitimate) drift of schedule-sensitive metrics across
    #: seeds, as max relative deviation from baseline.  Informational.
    drift: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclasses.dataclass
class RaceReport:
    """The whole suite's outcome."""

    seeds: List[int]
    scenarios: List[ScenarioReport]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios)


def conservation_fingerprint(result: RunResult) -> str:
    """Canonical JSON of everything that must survive *any* legal
    reordering of same-``(time, priority)`` dispatch windows."""
    payload = {
        "served": result.response_times.count,
        "failed": result.requests_failed,
        "reads": result.buffer_hits + result.data_disk_hits,
        "writes": result.writes_buffered + result.writes_direct,
        "latency_samples": {
            name: stat.count for name, stat in result.latency_components.items()
        },
        "nodes": [node.name for node in result.nodes],
    }
    return canonical_json(payload)


def default_scenarios(n_requests: int = DEFAULT_N_REQUESTS) -> List[JobSpec]:
    """The seven stock scenarios, each a seed-7 run labelled with its
    name: one representative point per Table-II sweep, the metaplane
    drill, an online-mode run, and an SSD buffer tier under device
    faults."""

    def synthetic(**overrides: float) -> TraceSpec:
        workload = SyntheticWorkload(n_requests=n_requests, write_fraction=0.2)
        # Seed 0 is the generator's default stream.
        return TraceSpec(workload=dataclasses.replace(workload, **overrides), seed=0)

    def scenario(
        label: str, trace: TraceSpec, config: EEVFSConfig, faults: Optional[FaultSchedule] = None
    ) -> JobSpec:
        return JobSpec(label=label, trace=trace, config=config, seed=7, faults=faults)

    prefetch = EEVFSConfig()
    scenarios = [
        # Table II, one point per sweep (PF config throughout: the
        # prefetch path is where the continuation traffic lives).
        scenario("sweep:data_size=20MB", synthetic(data_size_bytes=20 * MB), prefetch),
        scenario("sweep:mu=500", synthetic(mu=500.0), prefetch),
        scenario("sweep:inter_arrival=350ms", synthetic(inter_arrival_s=0.350), prefetch),
        scenario(
            "sweep:prefetch_count=100",
            synthetic(),
            dataclasses.replace(prefetch, prefetch_files=100),
        ),
    ]
    # Metadata-plane drill: sharded consensus plane, every shard leader
    # crashed once mid-replay, patient client retries.
    meta_config = drill_config(replicas=3)
    scenarios.append(
        scenario(
            "metaplane:leader-crash",
            TraceSpec(workload=BerkeleyWebWorkload(n_requests=n_requests)),
            meta_config,
            # Compressed relative to the stock drill so all four crashes
            # and repairs land inside the shorter race-suite replay.
            faults=leader_crash_schedule(
                meta_config.metadata_shards,
                first_at=15.0,
                spacing=25.0,
                repair_after=10.0,
            ),
        )
    )
    # Online mode: streaming estimator + feedback controller replanning.
    scenarios.append(
        scenario("online:adaptive", synthetic(), EEVFSConfig(online_mode=True))
    )
    # SSD buffer tier under every device fault, on both device classes:
    # flaky DEVSLP exits and spin-ups, a slowed SSD, and fail/repair of a
    # buffer SSD and of a data HDD.
    scenarios.append(
        scenario(
            "ssd:buffer-faults",
            synthetic(write_fraction=0.4),
            EEVFSConfig(buffer_backend="ssd", ssd_capacity_mb=32, ssd_buffer_idle_s=2.0),
            faults=(
                FaultSchedule()
                .flaky_spinups("node5/buffer", at=5, count=2, backoff_s=0.3)
                .slow_disk("node1/buffer", at=10, factor=3.0, until=60)
                .disk_fail("node2/buffer", at=20)
                .disk_repair("node2/buffer", at=80)
                .disk_fail("node3/data0", at=30)
                .disk_repair("node3/data0", at=90)
                .flaky_spinups("node6/data1", at=15, count=2, backoff_s=0.5)
            ),
        )
    )
    return scenarios


def _run(spec: JobSpec, seed: Optional[int]) -> RunResult:
    """One scenario run, optionally under the chaos scheduler.

    The perturbation seed is installed class-wide for the duration of
    the call so every simulator the cluster build creates (there is
    exactly one, but the suite should not care) starts perturbed.
    """
    previous = Simulator.default_lane_perturbation_seed
    Simulator.default_lane_perturbation_seed = seed
    try:
        return execute_job(spec)
    finally:
        Simulator.default_lane_perturbation_seed = previous


_DRIFT_METRICS = ("energy_j", "end_s", "transitions", "buffer_hits")


def _drift(baseline: RunResult, perturbed: RunResult) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name in _DRIFT_METRICS:
        base = float(getattr(baseline, name))
        other = float(getattr(perturbed, name))
        out[name] = abs(other - base) / abs(base) if base else abs(other - base)
    return out


def run_scenario(
    scenario: JobSpec, seeds: Sequence[int] = DEFAULT_RACE_SEEDS
) -> ScenarioReport:
    """Baseline + two runs per perturbation seed; classify the outcome."""
    try:
        baseline = _run(scenario, None)
    except Exception as exc:  # noqa: BLE001 - the *point* is to catch model crashes
        return ScenarioReport(
            name=scenario.label,
            status="error",
            served=0,
            conservation="",
            problems=[f"baseline run raised {type(exc).__name__}: {exc}"],
        )
    report = ScenarioReport(
        name=scenario.label,
        status="ok",
        served=baseline.response_times.count,
        conservation=conservation_fingerprint(baseline),
    )
    drift: Dict[str, float] = {}
    for seed in seeds:
        try:
            first = _run(scenario, seed)
            second = _run(scenario, seed)
        except Exception as exc:  # noqa: BLE001
            report.status = "race"
            report.problems.append(
                f"seed {seed}: perturbed run raised {type(exc).__name__}: {exc}"
            )
            continue
        if canonical_json(first.record()) != canonical_json(second.record()):
            report.status = "race"
            report.problems.append(
                f"seed {seed}: perturbed schedule is not reproducible "
                f"(same seed, different metrics)"
            )
        conservation = conservation_fingerprint(first)
        if conservation != report.conservation:
            report.status = "race"
            report.problems.append(
                f"seed {seed}: conservation broken: {_one_line(conservation)} "
                f"!= baseline {_one_line(report.conservation)}"
            )
        for name, value in _drift(baseline, first).items():
            drift[name] = max(drift.get(name, 0.0), value)
    report.drift = drift
    return report


def run_race_suite(
    seeds: Sequence[int] = DEFAULT_RACE_SEEDS,
    n_requests: int = DEFAULT_N_REQUESTS,
    scenarios: Optional[Sequence[JobSpec]] = None,
) -> RaceReport:
    """Run every scenario through the chaos scheduler."""
    stock = scenarios if scenarios is not None else default_scenarios(n_requests)
    return RaceReport(
        seeds=list(seeds), scenarios=[run_scenario(s, seeds) for s in stock]
    )


def _one_line(fingerprint: str) -> str:
    """A canonical-JSON fingerprint folded onto one line, for text."""
    return " ".join(fingerprint.split())


def render_race_text(report: RaceReport) -> str:
    """Human-readable suite report (one block per scenario)."""
    lines: List[str] = []
    for scenario in report.scenarios:
        lines.append(f"{scenario.status.upper():5s} {scenario.name}")
        lines.append(f"      conservation {_one_line(scenario.conservation)}")
        if scenario.drift:
            drifts = ", ".join(
                f"{name}={value:.2%}" for name, value in sorted(scenario.drift.items())
            )
            lines.append(f"      sensitive-metric drift (expected): {drifts}")
        for problem in scenario.problems:
            lines.append(f"      ! {problem}")
    verdict = "no schedule races detected" if report.ok else "SCHEDULE RACES DETECTED"
    lines.append(
        f"{len(report.scenarios)} scenarios x {len(report.seeds)} perturbation "
        f"seeds: {verdict}"
    )
    return "\n".join(lines)


def render_race_json(report: RaceReport) -> str:
    """Canonical, schedule-invariant JSON: byte-identical across runs
    with *different* perturbation seeds unless a scenario misbehaves.

    The seeds themselves, the drift percentages and problem texts are
    deliberately excluded -- CI runs the suite twice with different
    seeds and ``cmp``s the two outputs.
    """
    payload = {
        "scenarios": [
            {
                "name": s.name,
                "status": s.status,
                "conservation": json.loads(s.conservation) if s.conservation else None,
            }
            for s in report.scenarios
        ],
        "ok": report.ok,
    }
    return canonical_json(payload)
