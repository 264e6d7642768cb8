"""The smoke goldens: each CI smoke command's output, pinned across commits.

``tests/golden/<name>.json`` is the output of the command the matching
CI smoke job runs (``race-smoke``, ``chaos-smoke``, ``online-smoke``,
``ssd-smoke``).  The drill, online and ssd files hold every run's
:meth:`~repro.core.filesystem.RunResult.record`; the race file holds the
suite's statuses and conservation fingerprints.  Each test re-runs one
command in-process and compares bytes, so a change that moves any
simulated value fails here with the first JSON paths that differ.

``tests/golden/dynamic.json`` is not a smoke command's output: it holds
the records of the three E3 runs of
:func:`~repro.experiments.ablations.ablate_dynamic_prefetch` (NPF,
static prefetch, and oracle-mode dynamic re-prefetch) through
``canonical_json``.  To re-pin it, write that dict into the golden path.

``tests/golden/shape.json`` pins the *schedule* rather than the
outcome: for a 1,500-request seed-1 run of each benchmark workload's
config (rebuilt here, not imported from ``bench/``) it holds the
number of dispatched events and the
:class:`~repro.devtools.sanitizer.ScheduleShapeHasher` digest.  A
dispatch rewrite that keeps every event in its ``(time, priority,
sequence)`` slot leaves both unchanged.

``--jobs 1`` keeps the run in this process; ``tests/parallel`` pins that
the worker count never changes a result.  To re-pin after a deliberate
change in behaviour, re-run the command into the golden path and say in
CHANGES.md why the behaviour moved (docs/performance.md, "Goldens").
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import EEVFSConfig
from repro.core.filesystem import canonical_json, EEVFSCluster
from repro.devtools.sanitizer import ScheduleShapeHasher
from repro.experiments.ablations import ablate_dynamic_prefetch
from repro.experiments.metaplane import drill_config, drill_trace, leader_crash_schedule
from repro.traces.nonstationary import DriftingWorkload, generate_drifting_trace
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload

GOLDEN = Path(__file__).parent / "golden"

#: name -> the CI smoke job's command line; ``{out}`` is the --json path,
#: and a command without one prints its JSON to stdout.
COMMANDS = {
    "races": "lint --races --race-seeds 101,303 --format json",
    "drill": "--requests 200 --seed 7 faults --metadata-drill --json {out}",
    "online": "--requests 200 --seed 7 online --sweeps traces --json {out}",
    "ssd": "--requests 150 --seed 7 ssd --capacities-mb 16 32 --channels 1 2 --json {out}",
}


def _differing_paths(expected, actual, path="$"):
    """JSON paths at which *actual* departs from *expected*, in order."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected.keys() | actual.keys()):
            if key not in actual:
                yield f"{path}.{key} (missing)"
            elif key not in expected:
                yield f"{path}.{key} (new)"
            else:
                yield from _differing_paths(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{path} (length {len(expected)} -> {len(actual)})"
        for index, (old, new) in enumerate(zip(expected, actual, strict=False)):
            yield from _differing_paths(old, new, f"{path}[{index}]")
    elif json.dumps(expected) != json.dumps(actual):  # NaN-safe, keeps 1 != 1.0
        yield f"{path}: {expected!r} -> {actual!r}"


def _assert_matches_golden(name, produced):
    golden = (GOLDEN / f"{name}.json").read_text()
    if produced != golden:
        paths = list(_differing_paths(json.loads(golden), json.loads(produced)))
        shown = "\n  ".join(paths[:10]) or "(same data, different formatting)"
        pytest.fail(
            f"{name}: output differs from tests/golden/{name}.json in "
            f"{len(paths)} place(s); first:\n  {shown}",
            pytrace=False,
        )


@pytest.mark.parametrize("name", list(COMMANDS))
def test_smoke_output_matches_its_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    command = COMMANDS[name]
    main(["--jobs", "1", *command.format(out=out).split()])
    printed = capsys.readouterr().out
    _assert_matches_golden(name, out.read_text() if "{out}" in command else printed)


def test_dynamic_prefetch_ablation_matches_its_golden():
    """E3's three runs (NPF, static, dynamic re-prefetch); the only
    golden that replans in oracle mode."""
    runs = ablate_dynamic_prefetch()
    _assert_matches_golden(
        "dynamic", canonical_json({name: run.record() for name, run in runs.items()})
    )


# -- the schedule shape of the benchmark workloads -------------------------------------

SHAPE_REQUESTS = 1500
SHAPE_SEED = 1


def _synthetic(write_fraction=0.0):
    return lambda n, seed: generate_synthetic_trace(
        SyntheticWorkload(n_requests=n, write_fraction=write_fraction),
        rng=np.random.default_rng(seed),
    )


#: name -> ((n, seed) -> trace, config, () -> faults): the four benchmark
#: workloads' configs, rebuilt here so the benchmark's files stay free to
#: move independently of this pin.
SHAPE_WORKLOADS = {
    "paper_default": (_synthetic(), EEVFSConfig(), lambda: None),
    "ssd_write": (
        _synthetic(write_fraction=0.4),
        EEVFSConfig(buffer_backend="ssd", ssd_capacity_mb=32, ssd_buffer_idle_s=2.0),
        lambda: None,
    ),
    "online_drift": (
        lambda n, seed: generate_drifting_trace(
            DriftingWorkload(n_requests=n), rng=np.random.default_rng(seed)
        ),
        EEVFSConfig(online_mode=True),
        lambda: None,
    ),
    "metaplane_chaos": (
        lambda n, seed: drill_trace(n_requests=n, trace_seed=seed),
        drill_config(3),
        lambda: leader_crash_schedule(4),
    ),
}


def schedule_shape(name):
    """``{"events", "shape"}`` of one workload's 1,500-request seed-1 run."""
    generate, config, faults = SHAPE_WORKLOADS[name]
    trace = generate(SHAPE_REQUESTS, SHAPE_SEED)
    cluster = EEVFSCluster(config=config, seed=SHAPE_SEED, faults=faults())
    shape = ScheduleShapeHasher().attach(cluster.sim)
    cluster.run(trace)
    return {"events": cluster.sim.events_processed, "shape": shape.hexdigest()}


@pytest.mark.parametrize("name", list(SHAPE_WORKLOADS))
def test_schedule_shape_matches_its_golden(name):
    """Every event of the run sits in the slot the golden recorded.  To
    re-pin, write ``canonical_json`` of ``{name: schedule_shape(name)}``
    over all four workloads into ``tests/golden/shape.json``."""
    golden = json.loads((GOLDEN / "shape.json").read_text())
    assert schedule_shape(name) == golden[name]
