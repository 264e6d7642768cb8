"""Tracked performance benchmarks: engine throughput and fan-out speedup.

:func:`run_perf_benchmark` measures seven things and writes them to
``BENCH_perf.json`` (schema ``eevfs-bench-perf/5``) so regressions show
up as a diff rather than an anecdote:

* **engine** -- event-loop throughput (events/second) on a synthetic
  stress mix of generator processes and resource contention;
* **dispatch** -- throughput of the flat continuation hot path alone
  (``call_soon``/``call_later`` chains, no generator frames), which is
  what the converted request path actually exercises;
* **single_run** -- wall-clock and runs/second for one full EEVFS run at
  the configured trace length;
* **online_run** -- the same single run in ``online_mode``, so the
  estimator/controller/replanner overhead is tracked explicitly;
* **meanfield_run** -- the closed-form backend over all Table-II sweep
  points, plus its implied speedup over one discrete run;
* **ssd_run** -- one full EEVFS run with the SSD buffer tier on a
  write-heavy workload, so the FTL/write-cache/GC overhead relative to
  ``single_run`` is tracked explicitly;
* **parallel** -- the same job batch executed with ``jobs=1`` and a real
  multi-worker pool, the observed speedup, and a strict equality check
  that the two executions produced identical metrics.

Numbers are machine-dependent; the JSON records the host's CPU count so
results are comparable across commits on the same machine, not across
machines.

Each invocation also appends a compact entry (headline numbers +
wall-clock timestamp) to the file's ``history`` list, so the bench
trajectory accumulates across commits instead of being overwritten.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import time
from typing import Any, Dict, List, Optional

from repro.core.config import EEVFSConfig
from repro.core.filesystem import run_eevfs
from repro.experiments.sweeps import sweep_specs
from repro.parallel import default_jobs, run_jobs
from repro.sim import Simulator
from repro.traces.cache import cached_trace
from repro.traces.synthetic import SyntheticWorkload

SCHEMA = "eevfs-bench-perf/5"
DEFAULT_PATH = Path("BENCH_perf.json")
#: Oldest history entries are dropped beyond this many runs.
HISTORY_LIMIT = 100


def engine_benchmark(horizon_s: float = 4000.0, n_procs: int = 64) -> Dict[str, Any]:
    """Raw event-loop throughput on a contention-heavy synthetic mix."""
    from repro.sim.resources import Resource

    sim = Simulator()
    shared = Resource(sim, capacity=4)

    def worker(period: float):
        while True:
            with shared.request() as grant:
                yield grant
                yield sim.timeout(period)
            yield sim.timeout(period * 0.5)

    for i in range(n_procs):
        sim.process(worker(0.25 + (i % 7) * 0.125))
    start = time.perf_counter()
    sim.run(until=horizon_s)
    wall_s = time.perf_counter() - start
    events = sim.events_processed
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_s": events / wall_s if wall_s > 0 else float("inf"),
    }


def dispatch_benchmark(n_events: int = 400_000, n_chains: int = 64) -> Dict[str, Any]:
    """Throughput of the continuation hot path (no generator frames).

    ``n_chains`` self-rescheduling callbacks alternate zero-delay
    ``call_soon`` hops with ``call_later`` timer hops until ``n_events``
    continuations have fired -- the same lane/heap mix the converted
    request path drives.
    """
    sim = Simulator()
    remaining = n_events

    def hop(value: object) -> None:
        nonlocal remaining
        if remaining <= 0:
            return
        remaining -= 1
        if remaining % 4 == 0:
            sim.call_later(0.001, hop)
        else:
            sim.call_soon(hop)

    for _ in range(n_chains):
        sim.call_soon(hop)
    start = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - start
    events = sim.events_processed
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_s": events / wall_s if wall_s > 0 else float("inf"),
    }


def single_run_benchmark(n_requests: int = 1000, repeats: int = 3) -> Dict[str, Any]:
    """Best-of-N wall clock for one full EEVFS run."""
    trace = cached_trace("synthetic", SyntheticWorkload(n_requests=n_requests), 1)
    config = EEVFSConfig()
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run_eevfs(trace, config=config, seed=0)
        best = min(best, time.perf_counter() - start)
    return {
        "n_requests": n_requests,
        "wall_s": best,
        "runs_per_s": 1.0 / best if best > 0 else float("inf"),
    }


def online_run_benchmark(n_requests: int = 1000, repeats: int = 3) -> Dict[str, Any]:
    """Best-of-N wall clock for one full *online-mode* EEVFS run.

    Tracked next to ``single_run`` so the streaming-estimator /
    controller / replanner overhead lands in the bench history as its
    own number instead of hiding inside an average.
    """
    trace = cached_trace("synthetic", SyntheticWorkload(n_requests=n_requests), 1)
    config = EEVFSConfig(online_mode=True)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run_eevfs(trace, config=config, seed=0)
        best = min(best, time.perf_counter() - start)
    return {
        "n_requests": n_requests,
        "wall_s": best,
        "runs_per_s": 1.0 / best if best > 0 else float("inf"),
    }


def ssd_run_benchmark(n_requests: int = 1000, repeats: int = 3) -> Dict[str, Any]:
    """Best-of-N wall clock for one EEVFS run on an SSD buffer tier.

    Write-heavy on purpose: rewrite churn drives the write cache,
    destager and garbage collector, so this number moves when the FTL
    hot path regresses -- which a read-mostly run would never notice.
    The (deterministic) write amplification rides along as a sanity
    column.
    """
    trace = cached_trace(
        "synthetic", SyntheticWorkload(n_requests=n_requests, write_fraction=0.4), 1
    )
    config = EEVFSConfig(
        buffer_backend="ssd", ssd_capacity_mb=32, ssd_buffer_idle_s=2.0
    )
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = run_eevfs(trace, config=config, seed=0)
        best = min(best, time.perf_counter() - start)
    assert result is not None
    return {
        "n_requests": n_requests,
        "wall_s": best,
        "runs_per_s": 1.0 / best if best > 0 else float("inf"),
        "write_amplification": result.ssd_write_amplification,
    }


def _comparison_fingerprint(comparisons: List[Any]) -> List[tuple]:
    """Exact metric tuples for equality checks between executions."""
    return [
        (
            c.pf.energy_j,
            c.pf.transitions,
            c.pf.response_times.mean,
            c.npf.energy_j,
            c.npf.transitions,
            c.npf.response_times.mean,
        )
        for c in comparisons
    ]


def _pool_available(workers: int = 2) -> bool:
    """True if a process pool can actually start and run a task here."""
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return pool.submit(abs, -1).result(timeout=60) == 1
    except Exception:
        return False


def parallel_benchmark(
    n_requests: int = 200, jobs: Optional[int] = None
) -> Dict[str, Any]:
    """Serial vs parallel execution of one sweep's job batch.

    ``jobs=None`` picks ``max(2, cpu_count)`` workers so the parallel leg
    exercises a real process pool even on one-CPU hosts -- previously it
    inherited ``default_jobs()`` (one per CPU), which on such hosts meant
    both legs ran the serial path and the reported "speedup" was noise.
    The report says what actually happened: the requested and effective
    worker counts and whether a pool could start at all (``run_jobs``
    degrades to inline execution when it cannot).
    """
    jobs_effective = max(2, default_jobs()) if jobs is None else max(1, int(jobs))
    _, _, specs = sweep_specs("mu", n_requests=n_requests)
    jobs_effective = min(jobs_effective, len(specs))
    pool_available = jobs_effective > 1 and _pool_available()

    start = time.perf_counter()
    serial = run_jobs(specs, jobs=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_jobs(specs, jobs=jobs_effective)
    parallel_s = time.perf_counter() - start

    identical = _comparison_fingerprint(serial) == _comparison_fingerprint(parallel)
    return {
        "n_jobs_in_batch": len(specs),
        "n_requests": n_requests,
        "jobs_requested": jobs,
        "jobs_effective": jobs_effective,
        "pool_available": pool_available,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "identical_metrics": identical,
    }


def meanfield_run_benchmark(n_requests: int = 1000) -> Dict[str, Any]:
    """Closed-form backend over every Table-II sweep point.

    Also measures one discrete run at the same trace length so the file
    records the backend's implied per-point speedup on this host.
    """
    from repro.analysis.meanfield import analyze
    from repro.experiments.sweeps import SWEEPS, _config_for, _workload_for

    points = [
        (sweep, value)
        for sweep, (_, values) in SWEEPS.items()
        for value in values
    ]
    start = time.perf_counter()
    for sweep, value in points:
        workload = _workload_for(sweep, value, n_requests)
        analyze(workload, config=_config_for(sweep, value, EEVFSConfig()))
    wall_s = time.perf_counter() - start

    trace = cached_trace("synthetic", SyntheticWorkload(n_requests=n_requests), 1)
    start = time.perf_counter()
    run_eevfs(trace, config=EEVFSConfig(), seed=0)
    discrete_wall_s = time.perf_counter() - start

    per_point_s = wall_s / len(points) if points else 0.0
    return {
        "n_points": len(points),
        "n_requests": n_requests,
        "wall_s": wall_s,
        "points_per_s": len(points) / wall_s if wall_s > 0 else float("inf"),
        "discrete_run_wall_s": discrete_wall_s,
        "speedup_vs_discrete": (
            discrete_wall_s / per_point_s if per_point_s > 0 else float("inf")
        ),
    }


def _history_entry(report: Dict[str, Any]) -> Dict[str, Any]:
    """Compact headline numbers of one report, for the history list."""
    engine = report["engine"]
    single = report["single_run"]
    online = report["online_run"]
    meanfield = report["meanfield_run"]
    ssd = report["ssd_run"]
    parallel = report["parallel"]
    return {
        "ts": report["ts"],
        "cpu_count": report["cpu_count"],
        "engine_events_per_s": engine["events_per_s"],
        "dispatch_events_per_s": report["dispatch"]["events_per_s"],
        "single_run_n_requests": single["n_requests"],
        "single_run_wall_s": single["wall_s"],
        "single_run_runs_per_s": single["runs_per_s"],
        "online_run_wall_s": online["wall_s"],
        "online_run_runs_per_s": online["runs_per_s"],
        "meanfield_points_per_s": meanfield["points_per_s"],
        "meanfield_speedup_vs_discrete": meanfield["speedup_vs_discrete"],
        "ssd_run_wall_s": ssd["wall_s"],
        "ssd_run_runs_per_s": ssd["runs_per_s"],
        "parallel_jobs": parallel["jobs_effective"],
        "parallel_pool_available": parallel["pool_available"],
        "parallel_speedup": parallel["speedup"],
    }


def load_history(out_path: os.PathLike) -> List[Dict[str, Any]]:
    """Prior run history from an existing report file (empty if none).

    Only a file in the current :data:`SCHEMA` contributes its
    ``history`` list.  An unreadable, alien or older-schema file
    contributes nothing -- the benchmark must never fail because an old
    artifact went stale.
    """
    path = Path(out_path)
    if not path.exists():
        return []
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    if not isinstance(previous, dict) or previous.get("schema") != SCHEMA:
        return []
    history = previous.get("history")
    return list(history) if isinstance(history, list) else []


def run_perf_benchmark(
    n_requests: int = 300,
    jobs: Optional[int] = None,
    out_path: Optional[os.PathLike] = DEFAULT_PATH,
) -> Dict[str, Any]:
    """Run all seven benchmark families; optionally write the JSON file.

    When *out_path* already holds a previous report, its run history is
    carried forward and this run is appended -- the file accumulates the
    bench trajectory (capped at :data:`HISTORY_LIMIT` entries) instead
    of overwriting it.
    """
    report = {
        "schema": SCHEMA,
        "ts": time.time(),
        "cpu_count": os.cpu_count(),
        "engine": engine_benchmark(),
        "dispatch": dispatch_benchmark(),
        "single_run": single_run_benchmark(n_requests=n_requests),
        "online_run": online_run_benchmark(n_requests=n_requests),
        "meanfield_run": meanfield_run_benchmark(),
        "ssd_run": ssd_run_benchmark(n_requests=n_requests),
        "parallel": parallel_benchmark(
            n_requests=max(50, n_requests // 2), jobs=jobs
        ),
    }
    history = load_history(out_path) if out_path is not None else []
    history.append(_history_entry(report))
    report["history"] = history[-HISTORY_LIMIT:]
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def validate_report(report: Dict[str, Any]) -> List[str]:
    """Schema check for a perf report; returns problems (empty = valid)."""
    problems: List[str] = []
    if report.get("schema") != SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, expected {SCHEMA!r}")
    for section, keys in (
        ("engine", ("events", "wall_s", "events_per_s")),
        ("dispatch", ("events", "wall_s", "events_per_s")),
        ("single_run", ("n_requests", "wall_s", "runs_per_s")),
        ("online_run", ("n_requests", "wall_s", "runs_per_s")),
        (
            "meanfield_run",
            ("n_points", "wall_s", "points_per_s", "speedup_vs_discrete"),
        ),
        (
            "ssd_run",
            ("n_requests", "wall_s", "runs_per_s", "write_amplification"),
        ),
        (
            "parallel",
            (
                "jobs_effective",
                "pool_available",
                "serial_s",
                "parallel_s",
                "speedup",
                "identical_metrics",
            ),
        ),
    ):
        body = report.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing section {section!r}")
            continue
        for key in keys:
            if key not in body:
                problems.append(f"{section}.{key} missing")
    parallel = report.get("parallel")
    if isinstance(parallel, dict) and parallel.get("identical_metrics") is not True:
        problems.append("parallel.identical_metrics is not True")
    history = report.get("history")
    if not isinstance(history, list) or not history:
        problems.append("history missing or empty")
    elif len(history) > HISTORY_LIMIT:
        problems.append(f"history has {len(history)} entries, limit {HISTORY_LIMIT}")
    return problems


def check_floor(report: Dict[str, Any], floor: Dict[str, Any]) -> List[str]:
    """Compare a report against a checked-in performance floor.

    *floor* maps dotted section keys (``"engine.events_per_s"``) to the
    minimum acceptable value.  Returns violations (empty = pass).  The
    floors are deliberately conservative -- they catch order-of-magnitude
    regressions (an accidental re-serialisation of the hot path), not
    run-to-run jitter.
    """
    problems: List[str] = []
    for dotted, minimum in floor.get("floors", {}).items():
        section, _, key = dotted.partition(".")
        value = (report.get(section) or {}).get(key)
        if not isinstance(value, (int, float)):
            problems.append(f"{dotted} missing from report")
        elif value < minimum:
            problems.append(f"{dotted} = {value:,.0f} below floor {minimum:,.0f}")
    return problems


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a perf report."""
    engine = report["engine"]
    dispatch = report["dispatch"]
    single = report["single_run"]
    online = report["online_run"]
    meanfield = report["meanfield_run"]
    ssd = report["ssd_run"]
    parallel = report["parallel"]
    history = report.get("history", [])
    overhead_pct = (
        100.0 * (online["wall_s"] - single["wall_s"]) / single["wall_s"]
        if single["wall_s"] > 0
        else 0.0
    )
    pool_note = "" if parallel["pool_available"] else " [no process pool: serial fallback]"
    return "\n".join(
        [
            f"engine      {engine['events_per_s']:,.0f} events/s "
            f"({engine['events']:,} events in {engine['wall_s']:.2f} s)",
            f"dispatch    {dispatch['events_per_s']:,.0f} events/s "
            f"({dispatch['events']:,} continuations in {dispatch['wall_s']:.2f} s)",
            f"single run  {single['wall_s']:.3f} s at {single['n_requests']} "
            f"requests ({single['runs_per_s']:.2f} runs/s)",
            f"online run  {online['wall_s']:.3f} s at {online['n_requests']} "
            f"requests ({online['runs_per_s']:.2f} runs/s; "
            f"{overhead_pct:+.1f}% vs oracle single run)",
            f"mean-field  {meanfield['n_points']} points in "
            f"{meanfield['wall_s']:.3f} s ({meanfield['points_per_s']:.0f} points/s; "
            f"{meanfield['speedup_vs_discrete']:,.0f}x vs one discrete run)",
            f"ssd run     {ssd['wall_s']:.3f} s at {ssd['n_requests']} "
            f"requests ({ssd['runs_per_s']:.2f} runs/s; "
            f"WA={ssd['write_amplification']:.2f})",
            f"parallel    {parallel['speedup']:.2f}x with "
            f"jobs={parallel['jobs_effective']} over "
            f"{parallel['n_jobs_in_batch']} jobs "
            f"(serial {parallel['serial_s']:.2f} s -> "
            f"parallel {parallel['parallel_s']:.2f} s); "
            f"identical metrics: {parallel['identical_metrics']}{pool_note}",
            f"history     {len(history)} run(s) recorded",
        ]
    )
