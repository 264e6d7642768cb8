"""Metadata-plane chaos drills and shard/replica availability sweeps.

The paper's evaluation assumes the metadata server never fails; the
``repro.metaplane`` extension asks what it costs to drop that
assumption.  :func:`metaplane_study` packages both studies:

* the drill -- the headline chaos experiment, one shard count: replay
  the Berkeley-web-like trace while :meth:`~repro.faults.schedule.
  FaultSchedule.meta_leader_fail` kills every shard's leader once,
  comparing an unreplicated plane (each crash takes its shard down until
  the repair) against a 3-replica group (the survivors elect around the
  crash).  The claim under test: with replication, zero requests are
  abandoned; without it, the run records nonzero leaderless time.
* the sweep -- the same drill across a shard-count x replica-count
  grid, feeding the EXPERIMENTS.md table (:func:`metaplane_rows`).

Both are deterministic for a seed: every run's
:meth:`~repro.core.filesystem.RunResult.record` (aggregates, per-shard
stats, the fault log -- never request ids, which depend on
process-global counters) must be byte-identical across repeated
same-seed runs.  ``eevfs faults --metadata-drill --json`` writes the
drill's records as canonical JSON; CI's chaos-smoke job runs it twice
and compares both outputs with each other and with
``tests/golden/drill.json``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.config import EEVFSConfig
from repro.experiments.study import Results, Study
from repro.faults.schedule import FaultSchedule
from repro.parallel import JobSpec, TraceSpec
from repro.traces.berkeley import BerkeleyWebWorkload, generate_berkeley_like_trace
from repro.traces.model import Trace

#: Retry posture for chaos drills: patient enough that a client can ride
#: out a leader election (timeout 10 s, six retries backing off 0.5 s ->
#: 4 s) instead of abandoning mid-failover.
DRILL_TIMEOUT_S = 10.0
DRILL_MAX_RETRIES = 6
DRILL_BACKOFF_BASE_S = 0.5
DRILL_BACKOFF_CAP_S = 4.0


def drill_config(replicas: int, shards: int = 4) -> EEVFSConfig:
    """The drill's cluster config: a sharded plane plus patient retries."""
    return EEVFSConfig(
        metadata_plane=True,
        metadata_shards=shards,
        metadata_replicas=replicas,
        request_timeout_s=DRILL_TIMEOUT_S,
        request_max_retries=DRILL_MAX_RETRIES,
        request_backoff_base_s=DRILL_BACKOFF_BASE_S,
        request_backoff_cap_s=DRILL_BACKOFF_CAP_S,
    )


def leader_crash_schedule(
    n_shards: int,
    first_at: float = 20.0,
    spacing: float = 40.0,
    repair_after: float = 20.0,
) -> FaultSchedule:
    """Crash each shard's current leader once, staggered, then repair it.

    Crashes land at ``first_at + shard * spacing`` so elections never
    overlap across shards; each crashed replica is repaired
    ``repair_after`` seconds later (by shard name -- the victim is only
    known at injection time).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
    schedule = FaultSchedule()
    for shard in range(n_shards):
        at = first_at + shard * spacing
        schedule.meta_leader_fail(shard, at=at)
        schedule.meta_repair(f"shard{shard}", at=at + repair_after)
    return schedule


def drill_trace(n_requests: int = 1000, trace_seed: int = 1) -> Trace:
    """The drill workload: the Berkeley-web-like trace (Fig. 6 setup)."""
    return generate_berkeley_like_trace(
        BerkeleyWebWorkload(n_requests=n_requests),
        rng=np.random.default_rng(trace_seed),
    )


def metaplane_study(
    shard_counts: Sequence[int] = (1, 2, 4),
    replica_counts: Sequence[int] = (1, 3),
    n_requests: int = 1000,
    seed: int = 0,
) -> Study:
    """The leader-crash drill across a shards x replicas grid.

    Points are keyed by shard count; each holds one run per replica
    count, named ``"<replicas>-replica"``, over the same :func:`drill_trace`
    and :func:`leader_crash_schedule`, so only ``metadata_replicas``
    varies within a point.
    """
    trace = TraceSpec(workload=BerkeleyWebWorkload(n_requests=n_requests))
    return {
        shards: {
            f"{replicas}-replica": JobSpec(
                trace=trace,
                config=drill_config(replicas, shards=shards),
                seed=seed,
                faults=leader_crash_schedule(shards),
            )
            for replicas in replica_counts
        }
        for shards in shard_counts
    }


def metaplane_rows(results: Results) -> List[List[object]]:
    """One report row per run, by shards then replicas (EXPERIMENTS.md
    table)."""
    rows = []
    for runs in results.values():
        for result in runs.values():
            plane = result.metaplane
            assert plane is not None  # every sweep cell runs with a plane
            rows.append(
                [
                    result.config.metadata_shards,
                    result.config.metadata_replicas,
                    plane.elections,
                    plane.leaderless_s,
                    result.requests_retried,
                    result.requests_abandoned,
                    result.availability,
                    result.mean_response_s,
                ]
            )
    return sorted(rows, key=lambda row: row[:2])
