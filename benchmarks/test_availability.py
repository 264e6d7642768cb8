"""Extension E2: availability vs energy under failures.

The fault/replication subsystems' headline claim: with 2-way replication
a whole-node failure costs almost no availability (>= 99% of requests
still succeed) and bounded energy (< 15% over the same degraded run
without replication) -- the buffer-disk architecture absorbs most of the
repair traffic, so durability does not have to fight the energy budget.

Also asserts the determinism contract: one seed => one fault log,
event for event.
"""

from conftest import N_REQUESTS
import numpy as np

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.faults import FaultSchedule
from repro.metrics.report import summary_table
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload


def _trace():
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=N_REQUESTS), rng=np.random.default_rng(1)
    )


def _node_crash(trace):
    """One whole storage node dies ~30% into the workload, no repair."""
    return FaultSchedule().node_fail("node3", at=0.3 * trace.duration_s)


def test_availability_vs_energy(benchmark):
    trace = _trace()

    def run_pair():
        plain = EEVFSCluster(config=EEVFSConfig(), faults=_node_crash(trace)).run(trace)
        replicated = EEVFSCluster(
            config=EEVFSConfig(replication_factor=2), faults=_node_crash(trace)
        ).run(trace)
        return plain, replicated

    plain, replicated = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print()
    print(
        summary_table(
            {"no replication": plain, "2-way replication": replicated},
            title="Whole-node failure, same workload (availability vs energy)",
        )
    )
    print(
        f"\nfailovers {replicated.requests_failed_over}, "
        f"repairs {replicated.repairs_completed} "
        f"({replicated.repair_bytes_copied / 1e6:.0f} MB recopied), "
        f"under-replicated at end {replicated.under_replicated_files}"
    )

    # The ISSUE's two bounds.
    assert replicated.availability >= 0.99
    overhead = (replicated.energy_j - plain.energy_j) / plain.energy_j
    assert overhead < 0.15

    # And the parts that make them meaningful: the failure really bit the
    # unprotected run, and background repair made real progress.  (Full
    # factor restoration within the window depends on trace length vs the
    # rereplication throttle; tests/replication covers it exactly.)
    assert plain.availability < 1.0
    assert replicated.repairs_completed > 0
    assert replicated.repair_bytes_copied > 0


def test_fault_logs_are_deterministic(benchmark):
    trace = _trace()

    def run_once(seed):
        schedule = (
            FaultSchedule()
            .node_fail("node3", at=0.3 * trace.duration_s)
            .exponential_faults(
                ["node1/data0", "node5/data1"],
                mtbf_s=trace.duration_s / 3.0,
                horizon_s=trace.duration_s,
                mttr_s=60.0,
            )
        )
        cluster = EEVFSCluster(
            config=EEVFSConfig(replication_factor=2), seed=seed, faults=schedule
        )
        result = cluster.run(trace)
        assert result.fault_log is not None
        return result.fault_log

    def run_three():
        return run_once(0), run_once(0), run_once(1)

    first, second, other_seed = benchmark.pedantic(run_three, rounds=1, iterations=1)
    assert first == second  # same seed => identical event sequence
    assert list(first.records) == list(second.records)
    assert other_seed != first  # the stochastic part really is seeded
