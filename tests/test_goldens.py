"""The smoke goldens: each CI smoke command's output, pinned across commits.

``tests/golden/<name>.json`` is the output of the command the matching
CI smoke job runs (``race-smoke``, ``chaos-smoke``, ``online-smoke``,
``ssd-smoke``).  The drill, online and ssd files hold every run's
:meth:`~repro.core.filesystem.RunResult.record`; the race file holds the
suite's statuses and conservation fingerprints.  Each test re-runs one
command in-process and compares bytes, so a change that moves any
simulated value fails here with the first JSON paths that differ.

``tests/golden/cli/`` pins every study command of the CLI at ``--requests
40 --seed 3 --jobs 1``: its stdout, its exit code and any files it writes
(:data:`CLI_COMMANDS`).  They were written before the experiments became
studies, so a change to how runs are batched, compared or rendered that
moves a printed digit fails here.

``tests/golden/dynamic.json`` is not a smoke command's output: it holds
the records of E3's three runs, ``runs()`` of
``examples/dynamic_prefetching.py`` (NPF, static prefetch, and
oracle-mode dynamic re-prefetch), through ``canonical_json``.  To re-pin
it, write that dict into the golden path.

``tests/golden/shape.json`` pins the *schedule* rather than the
outcome: for a 1,500-request seed-1 run of each benchmark workload's
config (rebuilt here, not imported from ``bench/``) it holds the
number of dispatched events and the
:class:`~repro.devtools.sanitizer.ScheduleShapeHasher` digest.  A
dispatch rewrite that keeps every event in its ``(time, priority,
sequence)`` slot leaves both unchanged.

``tests/golden/scenarios.json`` pins what the retired generator oracles
of ``tests/core/test_dispatch_identity.py`` produced: for each of the
seed-7 cluster scenarios (:data:`SCENARIOS`) the run's record, event
count and shape digest; for the HDD-and-SSD device drill at each of
:data:`FAIL_AT` every request's outcome, the event count and the shape
digest; and the ``obs=True`` span export of :data:`SPAN_SCENARIOS`.  It
was written at the commit before ``Mailbox`` replaced ``Store``, where
the oracles and the flat paths agreed event for event.
``metaplane:replicated``, the one scenario whose plane commits log
entries, was pinned later, at the commit before consensus payloads were
reused across heartbeats.  ``replay:open``, ``replay:closed``,
``online:dead-source`` and the event counts and shape digests of the
span exports were pinned at the commit before the last generator
processes became flat callbacks.

``--jobs 1`` keeps the run in this process; ``tests/parallel`` pins that
the worker count never changes a result.  To re-pin after a deliberate
change in behaviour, re-run the command into the golden path and say in
CHANGES.md why the behaviour moved (docs/performance.md, "Goldens").
"""

from dataclasses import replace
import hashlib
import json
from pathlib import Path
import runpy

import pytest

from repro.backend import SATA_SSD_8GB
from repro.backend.ssd import SSDBackend
from repro.baselines.drpm import drpm_cluster, DRPMNode
from repro.cli import main
from repro.core.config import EEVFSConfig
from repro.core.filesystem import canonical_json
from repro.devtools.racesuite import default_scenarios
from repro.devtools.sanitizer import ScheduleShapeHasher
from repro.disk import ATA_80GB_TYPE1
from repro.disk.drive import RequestKind, SimDisk
from repro.experiments.metaplane import drill_config, leader_crash_schedule
from repro.faults import FaultSchedule
from repro.parallel import JobSpec, TraceSpec
from repro.sim import Simulator
from repro.sim.engine import hold_slot
from repro.sim.events import URGENT
from repro.traces.berkeley import BerkeleyWebWorkload
from repro.traces.nonstationary import DriftingWorkload
from repro.traces.synthetic import SyntheticWorkload

GOLDEN = Path(__file__).parent / "golden"
EXAMPLES = Path(__file__).parent.parent / "examples"

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


#: name -> the arguments of one study command, all run at ``--requests 40
#: --seed 3 --jobs 1``.  ``tests/golden/cli/<name>.txt`` is its stdout, with
#: the ``--out`` directory written as ``{out}``; ``exit_codes.json`` holds
#: its exit code, and ``tests/golden/cli/<name>/`` the files it writes.
CLI_COMMANDS = {
    "report": "report",
    "ablations": "ablations",
    "baselines": "baselines",
    "verify": "verify",
    "metaplane": "metaplane",
    "faults": "faults",
    "faults-mtbf": "faults --mtbf 100",
    "online": "online --sweeps mu --series --cost-gate",
    "ssd": "ssd",
    "compare": "compare",
    "wear": "wear",
    "profile": "profile",
    "meanfield": "meanfield",
    "figures-json": "figures 3 4 5 6 --format json --out {out}",
    "figures-csv": "figures 3 --chart --out {out}",
}


@pytest.mark.parametrize("name", list(CLI_COMMANDS))
def test_cli_output_matches_its_golden(name, tmp_path, capsys):
    out = tmp_path / name
    argv = CLI_COMMANDS[name].format(out=out).split()
    try:
        code = main(["--requests", "40", "--seed", "3", "--jobs", "1", *argv])
    except SystemExit as exc:
        code = exc.code
    golden = GOLDEN / "cli"
    printed = capsys.readouterr().out.replace(str(out), "{out}")
    assert printed == (golden / f"{name}.txt").read_text()
    assert code == json.loads((golden / "exit_codes.json").read_text())[name]
    pinned = sorted(path.name for path in (golden / name).glob("*"))
    assert sorted(path.name for path in out.glob("*")) == pinned
    for filename in pinned:
        assert (out / filename).read_text() == (golden / name / filename).read_text()


def test_dynamic_prefetch_ablation_matches_its_golden():
    """E3's three runs (NPF, static, dynamic re-prefetch); the only
    golden that replans in oracle mode."""
    example = runpy.run_path(str(EXAMPLES / "dynamic_prefetching.py"))
    runs = example["runs"](example["drifting_trace"]())
    _assert_matches_golden(
        "dynamic", canonical_json({name: run.record() for name, run in runs.items()})
    )


# -- the schedule shape of the benchmark workloads -------------------------------------


def shaped_run(spec, obs=False):
    """Run *spec* with a schedule-shape hasher attached: ``(result,
    events, shape digest)``."""
    cluster = spec.build(obs=obs)
    shape = ScheduleShapeHasher().attach(cluster.sim)
    result = cluster.run(spec.trace.generate(), replay_mode=spec.replay_mode)
    return result, cluster.sim.events_processed, shape.hexdigest()


SHAPE_REQUESTS = 1500
SHAPE_SEED = 1


def _shape_job(workload, **fields):
    """The seed-1 run over the seed-1 trace of *workload*."""
    trace = TraceSpec(workload=workload, seed=SHAPE_SEED)
    return JobSpec(trace=trace, seed=SHAPE_SEED, **fields)


#: name -> the 1,500-request run of each benchmark workload's config,
#: rebuilt here so the benchmark's files stay free to move independently
#: of this pin.
SHAPE_WORKLOADS = {
    "paper_default": _shape_job(SyntheticWorkload(n_requests=SHAPE_REQUESTS)),
    "ssd_write": _shape_job(
        SyntheticWorkload(n_requests=SHAPE_REQUESTS, write_fraction=0.4),
        config=EEVFSConfig(buffer_backend="ssd", ssd_capacity_mb=32, ssd_buffer_idle_s=2.0),
    ),
    "online_drift": _shape_job(
        DriftingWorkload(n_requests=SHAPE_REQUESTS),
        config=EEVFSConfig(online_mode=True),
    ),
    "metaplane_chaos": _shape_job(
        BerkeleyWebWorkload(n_requests=SHAPE_REQUESTS),
        config=drill_config(3),
        faults=leader_crash_schedule(4),
    ),
}


def schedule_shape(name):
    """``{"events", "shape"}`` of one workload's 1,500-request seed-1 run."""
    _, events, shape = shaped_run(SHAPE_WORKLOADS[name])
    return {"events": events, "shape": shape}


@pytest.mark.parametrize("name", list(SHAPE_WORKLOADS))
def test_schedule_shape_matches_its_golden(name):
    """Every event of the run sits in the slot the golden recorded.  To
    re-pin, write ``canonical_json`` of ``{name: schedule_shape(name)}``
    over all four workloads into ``tests/golden/shape.json``."""
    golden = json.loads((GOLDEN / "shape.json").read_text())
    assert schedule_shape(name) == golden[name]


# -- the dispatch scenarios: records, event counts and schedule shapes -----------------


def scenario_trace(write_fraction=0.2):
    """The 150-request synthetic trace most scenarios replay, drawn from
    the generator's default stream (seed 0)."""
    workload = SyntheticWorkload(n_requests=150, write_fraction=write_fraction)
    return TraceSpec(workload=workload, seed=0)


#: The race suite's scenarios, by name.
RACES = {spec.label: spec for spec in default_scenarios()}

#: name -> the scenario's seed-7 run.  Between them they reach the serve
#: chain's silent, failover and failed-reply branches, flaky spin-ups,
#: DRPM shifts and hint sleeps under the time predictor, the metadata
#: plane and the SSD tier under faults.
SCENARIOS = {
    "prefetch": JobSpec(trace=scenario_trace(), config=EEVFSConfig(), seed=7),
    "no-prefetch": JobSpec(
        trace=scenario_trace(), config=EEVFSConfig(prefetch_enabled=False), seed=7
    ),
    "online": JobSpec(trace=scenario_trace(), config=EEVFSConfig(online_mode=True), seed=7),
    "ssd-writes": JobSpec(
        trace=scenario_trace(write_fraction=0.4),
        config=EEVFSConfig(buffer_backend="ssd", ssd_capacity_mb=32, ssd_buffer_idle_s=2.0),
        seed=7,
    ),
    "metaplane:leader-crash": RACES["metaplane:leader-crash"],
    # Re-replication after a disk and a node failure puts placement
    # updates in the plane's log, so entries replicate and commit
    # across the leader crashes.
    "metaplane:replicated": JobSpec(
        trace=TraceSpec(workload=BerkeleyWebWorkload(n_requests=300)),
        config=replace(drill_config(3), replication_factor=2),
        seed=7,
        faults=(
            leader_crash_schedule(4)
            .disk_fail("node2/data0", at=15.0)
            .node_fail("node5", at=50.0)
        ),
    ),
    "ssd:buffer-faults": RACES["ssd:buffer-faults"],
    # Writes straight to the data disks, one of which dies.
    "write-through": JobSpec(
        trace=scenario_trace(write_fraction=0.4),
        config=EEVFSConfig(write_buffering=False),
        seed=7,
        faults=FaultSchedule().disk_fail("node1/data0", at=3),
    ),
    # Replicated writes and reads over a dead data disk and a dead
    # buffer disk: the serve chain's silent and failover branches.
    "replication": JobSpec(
        trace=scenario_trace(write_fraction=0.4),
        config=EEVFSConfig(replication_factor=2),
        seed=7,
        faults=(
            FaultSchedule()
            .disk_fail("node1/data0", at=3)
            .disk_fail("node2/buffer", at=6)
        ),
    ),
    # Injected spin-up failures, with and without a back-off.
    "flaky-spinups": JobSpec(
        trace=scenario_trace(),
        config=EEVFSConfig(),
        seed=7,
        faults=(
            FaultSchedule()
            .flaky_spinups("node1/data0", at=2, count=2, backoff_s=0.5)
            .flaky_spinups("node2/data1", at=2, count=2, backoff_s=0.0)
        ),
    ),
    # DRPM drives (idle timers shift them to low speed, hints sleep
    # them from full-speed idle) under the time predictor's wake-ahead
    # timers.
    "drpm:time": JobSpec(
        trace=scenario_trace(),
        config=EEVFSConfig(window_predictor="time"),
        cluster=drpm_cluster(),
        seed=7,
        node_class=DRPMNode,
    ),
    # The open and closed replayers (every other scenario replays paced).
    "replay:open": JobSpec(trace=scenario_trace(), seed=7, replay_mode="open"),
    "replay:closed": JobSpec(trace=scenario_trace(), seed=7, replay_mode="closed"),
    # Online replans copy files off a dead data disk, and re-replication
    # after the node crash pulls files from that disk: the failure
    # branches of the node's prefetch copy and replica pull.
    "online:dead-source": JobSpec(
        trace=scenario_trace(),
        config=EEVFSConfig(online_mode=True, replication_factor=2),
        seed=7,
        faults=FaultSchedule().disk_fail("node6/data0", at=30).node_fail("node5", at=50),
    ),
}


def scenario_run(name, obs=False):
    """One seed-7 run of scenario *name*: ``(result, events, shape)``."""
    return shaped_run(SCENARIOS[name], obs=obs)


MB = 1 << 20

#: Failure instants that land, between them, on every reachable device
#: failure path: a DEVSLP exit failing under a waiting request (3.503), a
#: write failing on the host interface (3.527), a spin-up failing under a
#: waiting HDD request while a flash read's channel jobs fail (3.539),
#: and a destage whose program jobs fail (3.548).
FAIL_AT = [3.503, 3.527, 3.539, 3.548]


def device_drill(fail_at):
    """An HDD and an SSD under a write-heavy burst; both fail at
    *fail_at*, are repaired 3 s later and then get flaky spin-ups.
    Returns ``(outcomes, events, shape)``; an outcome is ``(device,
    index, repr(settled_at), ok)``."""
    sim = Simulator()
    shape = ScheduleShapeHasher().attach(sim)
    hdd = SimDisk(sim, ATA_80GB_TYPE1, name="hdd", auto_sleep_after=1.0)
    ssd = SSDBackend(
        sim,
        SATA_SSD_8GB.with_overrides(write_cache_bytes=6 * MB),
        name="ssd",
        auto_sleep_after=0.05,
    )
    outcomes = []

    def watch(name, index, request):
        def settle(event):
            if not event._ok:
                event.defuse()
            outcomes.append((name, index, repr(sim.now), event._ok))

        request.done.callbacks.append(settle)

    # The client and the fault script each start URGENT, sleep through
    # ``call_later`` and hold their completion's slot when done: the
    # slots the generator processes they replaced used.
    def client(index):
        if index == 60:
            sim.call_soon(hold_slot)
            return
        kind = RequestKind.WRITE if index % 3 else RequestKind.READ
        watch("ssd", index, ssd.submit(2 * MB, kind=kind, tag=("io", index % 7)))
        if index % 10 == 0:
            watch("hdd", index, hdd.submit(4 * MB))
        sim.call_later(0.004 if index % 20 else 3.5, client, index + 1)

    def fail(_value):
        hdd.fail()
        ssd.fail()
        sim.call_later(3.0, repair)

    def repair(_value):
        hdd.repair()
        ssd.repair()
        hdd.inject_spinup_failures(2, backoff_s=0.2)
        ssd.inject_spinup_failures(1, backoff_s=0.01)
        sim.call_soon(hold_slot)

    sim.call_soon(client, 0, priority=URGENT)
    sim.call_soon(lambda _value: sim.call_later(fail_at, fail), priority=URGENT)
    sim.run(until=40.0)
    return outcomes, sim.events_processed, shape.hexdigest()


#: Scenarios whose ``obs=True`` span export is pinned as well.
SPAN_SCENARIOS = ["prefetch", "ssd:buffer-faults", "replication", "drpm:time"]

SCENARIO_KEYS = [
    *SCENARIOS,
    *(f"drill@{fail_at}" for fail_at in FAIL_AT),
    *(f"spans:{name}" for name in SPAN_SCENARIOS),
]


def scenario_entry(key):
    """The ``tests/golden/scenarios.json`` entry *key*, rebuilt.

    * a :data:`SCENARIOS` name: the run's record, event count and
      shape digest;
    * ``drill@<t>``: the device drill failing at *t*: its outcomes,
      event count and shape digest;
    * ``spans:<scenario>``: the ``obs=True`` run's span count, the
      sha256 of its ``repr(span.as_dict())`` lines, each ending in a
      newline, and its event count and shape digest (the telemetry
      sampler's ticks among them).
    """
    if key.startswith("drill@"):
        outcomes, events, shape = device_drill(float(key[len("drill@"):]))
        return {"events": events, "outcomes": outcomes, "shape": shape}
    if key.startswith("spans:"):
        result, events, shape = scenario_run(key[len("spans:"):], obs=True)
        lines = [repr(span.as_dict()) + "\n" for span in result.trace.spans]
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        return {"count": len(lines), "events": events, "sha256": digest, "shape": shape}
    result, events, shape = scenario_run(key)
    return {"events": events, "record": result.record(), "shape": shape}


def golden_entry(key):
    """Entry *key* of ``tests/golden/scenarios.json``."""
    return json.loads((GOLDEN / "scenarios.json").read_text())[key]


def test_dispatch_scenarios_match_their_golden():
    """Every dispatch scenario, drill point and span export ends as the
    golden pinned: same records, event counts, schedule shapes and
    spans.  To re-pin, write ``canonical_json`` of ``{key:
    scenario_entry(key)}`` over :data:`SCENARIO_KEYS` into
    ``tests/golden/scenarios.json``."""
    produced = {key: scenario_entry(key) for key in SCENARIO_KEYS}
    _assert_matches_golden("scenarios", canonical_json(produced))
