"""The per-layer call-ceiling gate (``benchmarks/call_ceilings.py``)."""

import json
from pathlib import Path

from call_ceilings import CEILINGS, check, layer_calls

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
PINNED = json.loads(CEILINGS.read_text())
CEILING = {"sim.calls": 100, "analysis.calls": 0}


def test_pins_every_layer_of_every_workload():
    layers = {m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls")}
    assert set(PINNED["ceilings"]) == {w["name"] for w in SPEC["workloads"]}
    for ceilings in PINNED["ceilings"].values():
        assert set(ceilings) == layers
        assert all(isinstance(v, int) and v >= 0 for v in ceilings.values())


def test_reads_the_calls_from_the_last_output_line():
    line = {"metrics": {"sim.calls": {"value": 7}, "sim.self_s": {"value": 0.5}}}
    output = "paper_default  sim.calls  7 count\n" + json.dumps(line) + "\n"
    assert layer_calls(output) == {"sim.calls": 7}


def test_at_or_below_the_ceiling_passes():
    assert check({"sim.calls": 100, "analysis.calls": 0}, CEILING, "3.11", "3.11") == []
    assert check({"sim.calls": 60, "analysis.calls": 0}, CEILING, "3.11", "3.11") == []


def test_one_call_over_fails():
    problems = check({"sim.calls": 101, "analysis.calls": 0}, CEILING, "3.11", "3.11")
    assert problems == ["sim.calls: 101 calls exceed the ceiling 100 by 1 (+1.0%)"]
    assert check({"sim.calls": 1, "analysis.calls": 1}, CEILING, "3.11", "3.11") == [
        "analysis.calls: 1 calls exceed the ceiling 0 by 1"
    ]


def test_layer_sets_must_match():
    assert check({"sim.calls": 1}, CEILING, "3.11", "3.11") == ["analysis.calls: not reported"]
    assert check({**CEILING, "new.calls": 1}, CEILING, "3.11", "3.11") == [
        "new.calls: no ceiling pinned"
    ]


def test_other_interpreter_fails():
    assert check(CEILING, CEILING, "3.11", "3.12") == [
        "ceilings are pinned on CPython 3.11, this is 3.12"
    ]
