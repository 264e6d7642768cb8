"""The flat dispatch paths on full cluster runs, against the goldens.

The hot path runs on flat callbacks: the fabric's :class:`_Delivery`
continuation, :class:`Link` grants through ``call_soon``, the disk and
SSD servers, the SSD destager and channels, the inbox handlers of the
storage server, storage node, client and metadata server (all fed by
:class:`~repro.sim.resources.Mailbox`), the node's per-request
:class:`_Serve` chain, the paced replayer, device transitions (failed
spin-ups included), the power manager's time-based waker and the idle
watchdogs; so do server setup, the node's prefetch, destage and repair
copies, the open and closed replayers and the periodic loops.  Each one
replaced generator or grant machinery, and the replacement had to be
*invisible*.

This file once ran the replaced generators as test-only oracles next to
the flat paths.  Those oracles yielded the ``Store`` events the engine no
longer has, so they are retired; what they produced is pinned instead.
``tests/golden/scenarios.json`` holds, for every scenario of
:data:`tests.test_goldens.SCENARIOS` and every device-drill failure
instant, the record, event count and
:class:`~repro.devtools.sanitizer.ScheduleShapeHasher` digest, and the
``obs=True`` span export of four scenarios, all written at a commit
where the oracles and the flat paths agreed event for event.  The tests
below check one facet each against that golden (``tests/test_goldens.py``
rebuilds the whole file), so a rewrite that moves an event out of its
``(time, priority, sequence)`` slot fails here by scenario name.  The
scenarios add write-through, replicated writes over dead drives (the
serve chain's silent, failover and failed-reply branches), flaky
spin-ups, a DRPM node with the time predictor (speed shifts, hint sleeps
and the waker) and device faults to whole runs; the
device drill fails an HDD and an SSD mid-transition, mid-write,
mid-read and mid-destage, which walks the servers' and destager's
``_defused`` paths.
"""

import pytest

from repro.backend.ssd import SSDBackend
from repro.core import EEVFSConfig
from repro.core.filesystem import canonical_json, EEVFSCluster
from repro.core.node import _Serve, StorageNode
from repro.devtools.sanitizer import EventStreamHasher
from repro.disk.drive import SimDisk
from repro.sim.events import Event
from tests.test_goldens import (
    device_drill,
    FAIL_AT,
    golden_entry,
    scenario_entry,
    scenario_run,
    scenario_trace,
    SCENARIOS,
)

CONFIGS = [
    EEVFSConfig(),
    EEVFSConfig(prefetch_enabled=False),
    EEVFSConfig(online_mode=True),
]
CONFIG_IDS = ["prefetch", "no-prefetch", "online"]


def _assert_golden(key, *facets):
    """Scenario *key* rebuilt matches its golden entry in *facets*."""
    produced = scenario_entry(key)
    expected = golden_entry(key)
    for facet in facets:
        assert canonical_json(produced[facet]) == canonical_json(expected[facet]), (
            f"{key}: {facet} moved"
        )
    return produced


def _digest(config, seed=7):
    """EventStreamHasher digest of a whole cluster run."""
    cluster = EEVFSCluster(config=config, seed=seed)
    hasher = EventStreamHasher().attach(cluster.sim)
    cluster.run(scenario_trace().generate())
    return hasher.hexdigest(), hasher.events_hashed


@pytest.mark.parametrize("config", CONFIG_IDS)
def test_generator_and_continuation_paths_are_byte_identical(config):
    # The generator delivery's record, pinned when it was retired.
    _assert_golden(config, "record")


@pytest.mark.parametrize("config", CONFIGS, ids=[f"cont-{name}" for name in CONFIG_IDS])
def test_event_stream_digest_is_deterministic_per_mode(config):
    # A same-seed run on the product path is digest-reproducible down
    # to the event stream.
    assert _digest(config) == _digest(config)


# -- the rebuilt loops: same schedule, event for event -----------------------------------


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_loop_oracles_keep_every_event_in_its_slot(scenario):
    _assert_golden(scenario, "record", "events", "shape")


@pytest.mark.parametrize(
    "scenario", ["prefetch", "ssd:buffer-faults", "replication", "drpm:time"]
)
def test_loop_oracles_export_the_same_spans(scenario):
    spans = _assert_golden(f"spans:{scenario}", "count", "events", "sha256", "shape")
    assert spans["count"] > 100


def test_the_serve_chain_walks_every_failure_branch():
    walked = set()

    def branch_spy(original):
        def spy(self, event):
            forwarded = self.forwarded
            if forwarded.silent:
                walked.add("silent")
            else:
                walked.add("failover" if forwarded.failover else "failed reply")
            return original(self, event)

        return spy

    def stage_spy(name, original):
        def spy(self, event):
            if not event._ok:
                walked.add(name)
            return original(self, event)

        return spy

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Serve, "_failed", branch_spy(_Serve._failed))
        for stage in ("_staged", "_written", "_read"):
            patch.setattr(_Serve, stage, stage_spy(stage, getattr(_Serve, stage)))
        for scenario in ("write-through", "replication"):
            scenario_run(scenario)
    assert walked == {
        "silent",
        "failover",
        "failed reply",
        "_staged",
        "_written",
        "_read",
    }


def test_copies_walk_their_failure_branches():
    """A dead drive under a prefetch copy, a replica pull and a destage
    copy: each flat chain takes the branch its generator's ``except
    DiskFailureError`` took -- the copy's span ends failed, the pull
    ships a negative :class:`ReplicaData` for a file it holds."""
    pulls = []
    ship = StorageNode._ship_replica

    def ship_spy(self, pull, size, ok):
        if not ok and size:  # the read failed, not the lookup
            pulls.append(pull.file_id)
        return ship(self, pull, size, ok)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StorageNode, "_ship_replica", ship_spy)
        failed = {
            span.kind
            for scenario in ("online:dead-source", "replication")
            for span in scenario_run(scenario, obs=True)[0].trace.spans
            if span.tags and span.tags.get("ok") is False
        }
    assert {"prefetch.copy", "destage.copy"} <= failed
    assert pulls


# -- device faults mid-flight: the ``_defused`` paths ---------------------------------


@pytest.mark.parametrize("fail_at", FAIL_AT)
def test_device_failures_keep_every_event_in_its_slot(fail_at):
    drill = _assert_golden(f"drill@{fail_at}", "outcomes", "events", "shape")
    assert any(not ok for *_, ok in drill["outcomes"])


def _failed_event(arg):
    return isinstance(arg, Event) and not arg._ok


def test_device_drill_walks_the_failure_paths():
    walked = set()

    def spy(cls, name, failed):
        original = getattr(cls, name)

        def wrapper(self, arg):
            if failed(arg):
                walked.add(f"{cls.__name__}.{name}")
            return original(self, arg)

        return wrapper

    # A device server's `_serve` takes the dequeued request, or the
    # transition event the held request waited on.
    paths = [
        (SimDisk, "_serve", _failed_event),
        (SimDisk, "_fail_held", lambda failure: True),
        (SSDBackend, "_serve", _failed_event),
        (SSDBackend, "_finish", lambda failure: failure is not None),
        (SSDBackend, "_flash_read", _failed_event),
        (SSDBackend, "_destaged", _failed_event),
    ]
    with pytest.MonkeyPatch.context() as patch:
        for cls, name, failed in paths:
            patch.setattr(cls, name, spy(cls, name, failed))
        for fail_at in FAIL_AT:
            device_drill(fail_at)
    assert walked == {f"{cls.__name__}.{name}" for cls, name, _ in paths}
