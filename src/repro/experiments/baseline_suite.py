"""The baseline shoot-out as one study point.

The seven comparators (EEVFS-PF plus the six energy-policy baselines)
all replay the same trace independently -- there is no shared state to
serialise -- so the suite is the textbook fan-out: one point,
:data:`BASELINES`, with one run per system.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping

from repro.baselines.alwayson import alwayson_config
from repro.baselines.drpm import drpm_cluster, drpm_config, DRPMNode
from repro.baselines.lowpower import lowpower_cluster
from repro.baselines.maid import maid_config, MAIDNode
from repro.baselines.pdc import pdc_config
from repro.core.config import EEVFSConfig
from repro.experiments.study import Study
from repro.parallel import JobSpec, TraceSpec
from repro.traces.synthetic import MB, SyntheticWorkload

#: The point key of the shoot-out in a study.
BASELINES = "baselines"

#: Display name -> the comparator's run, without trace or seed.  Order
#: matches the historical report table.
SUITE: Dict[str, JobSpec] = {
    "EEVFS-PF": JobSpec(),
    "EEVFS-NPF": JobSpec(config=EEVFSConfig().as_npf()),
    "Always-on": JobSpec(config=alwayson_config()),
    "MAID": JobSpec(config=maid_config(cache_bytes=700 * MB), node_class=MAIDNode),
    "PDC": JobSpec(config=pdc_config()),
    "DRPM": JobSpec(config=drpm_config(), cluster=drpm_cluster(), node_class=DRPMNode),
    "Low-power HW": JobSpec(config=EEVFSConfig().as_npf(), cluster=lowpower_cluster()),
}


def baseline_study(
    n_requests: int = 1000,
    seed: int = 0,
    suite: Mapping[str, JobSpec] = SUITE,
) -> Study:
    """One run per comparator of *suite*, all over the identical
    synthetic trace (rng seed 1), named by display name."""
    trace = TraceSpec(workload=SyntheticWorkload(n_requests=n_requests))
    return {
        BASELINES: {
            name: replace(spec, trace=trace, seed=seed) for name, spec in suite.items()
        }
    }
