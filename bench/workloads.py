"""The four benchmark workloads.

Each workload is one simulated client replaying a trace in paced mode
(open loop at the trace timestamps, at most 4 requests outstanding)
against the default 8-node cluster.  ``seed`` seeds both the trace RNG
(``np.random.default_rng(seed)``) and the cluster.  Why each workload
exists, and which layers it stresses or bypasses, is recorded in
``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.config import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.experiments.metaplane import drill_config, drill_trace, leader_crash_schedule
from repro.faults.schedule import FaultSchedule
from repro.traces.model import Trace
from repro.traces.nonstationary import DriftingWorkload, generate_drifting_trace
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload


@dataclass(frozen=True)
class Workload:
    name: str
    n_requests: int
    #: ``(n_requests, seed) -> Trace``
    generate: Callable[[int, int], Trace]
    config: EEVFSConfig
    faults: Callable[[], Optional[FaultSchedule]] = lambda: None

    def trace(self, seed: int, n_requests: Optional[int] = None) -> Trace:
        return self.generate(n_requests or self.n_requests, seed)

    def cluster(
        self, seed: int, config: Optional[EEVFSConfig] = None, obs: Optional[bool] = None
    ) -> EEVFSCluster:
        return EEVFSCluster(
            config=config or self.config, seed=seed, faults=self.faults(), obs=obs
        )

    def setup(
        self, seed: int, n_requests: Optional[int] = None, obs: Optional[bool] = None
    ) -> Tuple[Trace, EEVFSCluster]:
        """Generate the trace and build the cluster: the timed set-up."""
        return self.trace(seed, n_requests), self.cluster(seed, obs=obs)


def _synthetic(write_fraction: float = 0.0) -> Callable[[int, int], Trace]:
    def generate(n: int, seed: int) -> Trace:
        return generate_synthetic_trace(
            SyntheticWorkload(n_requests=n, write_fraction=write_fraction),
            rng=np.random.default_rng(seed),
        )

    return generate


def _drifting(n: int, seed: int) -> Trace:
    return generate_drifting_trace(
        DriftingWorkload(n_requests=n), rng=np.random.default_rng(seed)
    )


def _berkeley(n: int, seed: int) -> Trace:
    return drill_trace(n_requests=n, trace_seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        # Table-II point: 1000 x 10 MB files, MU=1000, 700 ms gaps, reads,
        # all-HDD, oracle prefetch K=70.  SSD, online and metaplane code
        # is bypassed.
        Workload("paper_default", 12000, _synthetic(), EEVFSConfig()),
        # Writes beside reads on a 32 MB flash buffer tier that naps.
        Workload(
            "ssd_write",
            6000,
            _synthetic(write_fraction=0.4),
            EEVFSConfig(buffer_backend="ssd", ssd_capacity_mb=32, ssd_buffer_idle_s=2.0),
        ),
        # Hot set moving 0.5 files/s (MU=100); streaming estimator,
        # controller and replanner replace the oracle.
        Workload("online_drift", 12000, _drifting, EEVFSConfig(online_mode=True)),
        # Berkeley-like trace, 4 shards x 3 Raft-lite replicas, every
        # shard leader crashed once: heartbeats, elections and retries.
        Workload(
            "metaplane_chaos",
            3000,
            _berkeley,
            drill_config(3),
            faults=lambda: leader_crash_schedule(4),
        ),
    )
}
