"""Self-test of the benchmark at tiny request counts: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from bench import BENCHMARK_JSON, ROOT
from bench.__main__ import load_spec, metric_table
from bench.compare import verdict
from bench.outcome import check_run, fingerprint
from bench.probe import normalise, ProbeChain
from bench.runner import measure
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def tiny():
    """Every workload at 1/40 of its size, one timed round, traced."""
    runs, diagnosed = measure(list(WORKLOADS), seed=3, min_repeats=1, shrink=40)
    for run in runs:
        run.metrics.update(diagnosed)
    return runs


def test_benchmark_json_is_well_formed():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_metric_is_emitted_with_its_unit(tiny):
    spec = load_spec()
    for run in tiny:
        assert not run.problems, run.problems
        table = metric_table(run, spec, list(spec))
        for name, entry in table.items():
            assert entry["unit"] == spec[name]["unit"]
            assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        for name in (m for m, s in spec.items() if s["section"] == "end_to_end"):
            assert table[name]["value"] != 0, (run.workload.name, name)


def test_fold_covers_profiled_self_time(tiny):
    for run in tiny:
        assert run.metrics["bench.fold_coverage_pct"] >= 95.0, run.workload.name
        assert sum(row["share_pct"] for row in run.layers) == pytest.approx(100.0)


def test_perturbed_fingerprint_is_caught(tiny):
    run = tiny[0]
    pinned = run.pinned()
    run.check_reference({run.workload.name: pinned})
    assert not run.problems
    key = "energy_kj"
    perturbed = {**pinned, key: math.nextafter(pinned[key], math.inf)}
    assert fingerprint(perturbed) != fingerprint(pinned)
    run.check_reference({run.workload.name: perturbed})
    assert len(run.problems) == 1 and key in run.problems[0]
    run.problems.clear()


def test_conservation_check_catches_a_lost_request(tiny):
    run = tiny[0]
    cluster = run.workload.cluster(run.seed)
    values = run.pinned()
    assert check_run(values, cluster) == []
    lost = {**values, "served": values["served"] - 1}
    assert [p.split(":")[0] for p in check_run(lost, cluster)] == ["conservation"]
    stuck = {**lost, "outstanding": 1}
    assert check_run(stuck, cluster) == ["conservation: 1 requests outstanding at end"]


def test_probe_normalisation(monkeypatch):
    assert normalise(2.0, 0.5, 0.3, p0_s=0.25) == pytest.approx(1.25)
    times = iter([0.5, 0.3, 0.25])
    monkeypatch.setattr("bench.probe.probe", lambda: next(times))
    chain = ProbeChain()
    assert chain.factor() * 2.0 == pytest.approx(normalise(2.0, 0.5, 0.3))
    assert chain.factor() == pytest.approx(normalise(1.0, 0.3, 0.25))
    assert chain.samples == [0.5, 0.3, 0.25]


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    pairs = lambda b, c: list(zip(b, c, strict=True))  # noqa: E731
    faster = [150.0 + i for i in range(10)]
    slower = [80.0 + i for i in range(10)]
    assert verdict(base, faster, pairs(base, faster), True, False, 0.1) == "improved"
    assert verdict(base, slower, pairs(base, slower), True, False, 0.1) == "worse"
    assert verdict(base, base, pairs(base, base), True, False, 0.1) == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, pairs(noisy, noisy), True, False, 0.1) == "unresolved"
    assert verdict([1.5], [1.5], [(1.5, 1.5)], False, True, None) == "unchanged"
    assert verdict([1.5], [1.6], [(1.5, 1.6)], False, True, None) == "worse"


def test_exits_nonzero_without_source(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "paper_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
