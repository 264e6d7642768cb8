"""Partitions and single-replica crashes on the metadata-plane drill.

``FaultSchedule.partition`` and ``FaultSchedule.meta_fail`` are reached
by no CLI command, study or example.  Each run below must complete,
repeat byte for byte at the same seed, and show its mechanism against
the fault-free drill (4 elections, no message dropped).
"""

from dataclasses import replace

import pytest

from repro.core.filesystem import canonical_json
from repro.experiments.metaplane import drill_config
from repro.faults import FaultSchedule
from repro.parallel import JobSpec, TraceSpec
from repro.traces.berkeley import BerkeleyWebWorkload

#: The 200-request metadata drill: four shards of three replicas, seed 7.
DRILL = JobSpec(
    trace=TraceSpec(workload=BerkeleyWebWorkload(n_requests=200)),
    config=drill_config(3),
    seed=7,
)


def drill(faults=None):
    """The drill under *faults*: ``(canonical record, result, messages
    the fabric dropped)``."""
    cluster = replace(DRILL, faults=faults).build()
    result = cluster.run(DRILL.trace.generate())
    return canonical_json(result.record()), result, cluster.fabric.messages_dropped


@pytest.fixture(scope="module")
def fault_free():
    _, result, dropped = drill()
    assert dropped == 0
    return result


def test_partitioned_replica_forces_elections(fault_free):
    schedule = FaultSchedule().partition("meta-s1-r0", at=20, until=50)
    record, result, dropped = drill(schedule)
    assert record == drill(schedule)[0]
    assert [r.kind for r in result.fault_log] == ["partition", "heal"]
    assert result.response_times.count == 200
    assert dropped > 0
    assert result.metaplane.elections > fault_free.metaplane.elections


def test_partitioned_node_costs_timeouts_and_retries(fault_free):
    schedule = FaultSchedule().partition("node3", at=20, until=50)
    record, result, dropped = drill(schedule)
    assert record == drill(schedule)[0]
    assert dropped > 0
    assert result.request_timeouts > 0
    assert result.requests_retried > fault_free.requests_retried
    assert result.requests_failed == 0


def test_crashed_leader_replica_leaves_its_shard_leaderless(fault_free):
    # Replica r1 leads shard 0 when it crashes at 20 s.
    schedule = (
        FaultSchedule().meta_fail("meta-s0-r1", at=20).meta_repair("meta-s0-r1", at=60)
    )
    record, result, _ = drill(schedule)
    assert record == drill(schedule)[0]
    assert [r.kind for r in result.fault_log] == ["meta_fail", "meta_repair"]
    assert result.response_times.count == 200
    assert result.metaplane.elections > fault_free.metaplane.elections
    shards = result.metaplane.shards
    assert shards[0].leaderless_s > 0
    assert all(shard.leaderless_s == 0 for shard in shards[1:])
