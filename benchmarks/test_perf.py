"""Tracked performance benchmark: writes ``BENCH_perf.json``.

Runs the seven perf families (engine throughput, continuation dispatch,
single-run and online-run wall clock, mean-field backend, SSD-buffer
run, and serial-vs-parallel speedup) at benchmark scale and persists the JSON
report at the repository root so successive commits can diff it.  The
assertions here are about *validity* (schema complete, parallel results
identical to serial), never about absolute speed -- machines differ.
The absolute-speed regression gate lives in CI against the checked-in
floor (``benchmarks/perf_floor.json``), where the comparison is
same-machine across commits and therefore meaningful.
"""

import json
import os
from pathlib import Path

from repro.experiments.perf import (
    check_floor,
    DEFAULT_PATH,
    HISTORY_LIMIT,
    load_history,
    run_perf_benchmark,
    SCHEMA,
    validate_report,
)

#: Scale knob shared with the other benchmarks (default: paper scale).
N_REQUESTS = int(os.environ.get("EEVFS_BENCH_REQUESTS", "1000"))


def _repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def test_perf_benchmark_writes_valid_report():
    out = _repo_root() / DEFAULT_PATH
    report = run_perf_benchmark(n_requests=N_REQUESTS, out_path=out)

    assert validate_report(report) == []
    assert report["schema"] == SCHEMA
    assert report["engine"]["events"] > 0
    assert report["engine"]["events_per_s"] > 0
    assert report["dispatch"]["events_per_s"] > 0
    assert report["single_run"]["runs_per_s"] > 0
    assert report["online_run"]["runs_per_s"] > 0
    assert report["meanfield_run"]["n_points"] > 0
    assert report["meanfield_run"]["speedup_vs_discrete"] > 0
    assert report["ssd_run"]["runs_per_s"] > 0
    assert report["ssd_run"]["write_amplification"] > 0
    assert report["parallel"]["identical_metrics"] is True
    assert report["parallel"]["jobs_effective"] >= 1

    on_disk = json.loads(out.read_text())
    assert validate_report(on_disk) == []
    assert on_disk == json.loads(json.dumps(report))  # JSON round-trips

    # History accumulates across invocations instead of being overwritten.
    assert isinstance(report["history"], list)
    assert 1 <= len(report["history"]) <= HISTORY_LIMIT
    latest = report["history"][-1]
    assert latest["engine_events_per_s"] == report["engine"]["events_per_s"]
    assert latest["single_run_wall_s"] == report["single_run"]["wall_s"]
    assert load_history(out) == report["history"]


def test_load_history_ignores_old_schemas_and_non_json(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    entry = {"ts": 3.0, "engine_events_per_s": 12.0}
    out.write_text(json.dumps({"schema": SCHEMA, "history": [entry]}))
    assert load_history(out) == [entry]

    out.write_text(json.dumps({"schema": "eevfs-bench-perf/4", "history": [entry]}))
    assert load_history(out) == []

    out.write_text("not json {")
    assert load_history(out) == []


def test_check_floor_flags_regressions_and_missing_keys():
    floor = {
        "floors": {
            "engine.events_per_s": 100,
            "dispatch.events_per_s": 100,
            "meanfield_run.speedup_vs_discrete": 10,
        }
    }
    healthy = {
        "engine": {"events_per_s": 500.0},
        "dispatch": {"events_per_s": 900.0},
        "meanfield_run": {"speedup_vs_discrete": 50.0},
    }
    assert check_floor(healthy, floor) == []

    regressed = {
        "engine": {"events_per_s": 5.0},  # below floor
        "dispatch": {},  # key missing entirely
        "meanfield_run": {"speedup_vs_discrete": 50.0},
    }
    problems = check_floor(regressed, floor)
    assert any("engine.events_per_s" in p and "below floor" in p for p in problems)
    assert any("dispatch.events_per_s missing" in p for p in problems)


def test_checked_in_floor_passes_on_this_host():
    floor = json.loads((_repo_root() / "benchmarks" / "perf_floor.json").read_text())
    report = run_perf_benchmark(n_requests=60, out_path=None)
    assert check_floor(report, floor) == []
