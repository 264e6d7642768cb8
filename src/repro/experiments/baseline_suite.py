"""The baseline shoot-out as one study point.

The seven comparators (EEVFS-PF plus the six energy-policy baselines)
all replay the same trace independently -- there is no shared state to
serialise -- so the suite is the textbook fan-out: one point,
:data:`BASELINES`, with one run per system.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.study import Study
from repro.parallel import JobSpec, TraceSpec
from repro.traces.synthetic import MB, SyntheticWorkload

#: The point key of the shoot-out in a study.
BASELINES = "baselines"

#: Display name -> (baseline function suffix or None for EEVFS-PF,
#: extra keyword arguments).  Order matches the historical report table.
SUITE: List[Tuple[str, Optional[str], Tuple[Tuple[str, object], ...]]] = [
    ("EEVFS-PF", None, ()),
    ("EEVFS-NPF", "npf", ()),
    ("Always-on", "alwayson", ()),
    ("MAID", "maid", (("cache_bytes", 700 * MB),)),
    ("PDC", "pdc", ()),
    ("DRPM", "drpm", ()),
    ("Low-power HW", "lowpower", ()),
]


def baseline_study(
    n_requests: int = 1000,
    seed: int = 0,
    suite: Sequence[Tuple[str, Optional[str], Tuple[Tuple[str, object], ...]]] = SUITE,
) -> Study:
    """One run per comparator of *suite*, all over the identical
    synthetic trace (rng seed 1), named by display name."""
    trace = TraceSpec(workload=SyntheticWorkload(n_requests=n_requests))
    return {
        BASELINES: {
            name: JobSpec(
                trace=trace,
                seed=seed,
                mode="eevfs" if baseline is None else "baseline",
                baseline=baseline,
                baseline_kwargs=kwargs,
            )
            for name, baseline, kwargs in suite
        }
    }
