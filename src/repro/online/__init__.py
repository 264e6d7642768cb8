"""repro.online -- adaptive prefetching without the oracle access log.

The paper's energy savings rest on popularity rankings and access hints
derived from a complete trace known in advance.  This package removes
that assumption: streaming estimators learn popularity from the
observed request stream, a feedback controller retunes prefetch-K and
the disk idle threshold from measured hit ratios and spin-up churn, and
a drift-gated replanner re-prefetches buffer disks as the workload
moves.  Enable with ``EEVFSConfig(online_mode=True)``.

The replanner is also the oracle's dynamic re-prefetcher: with
``popularity_window_s`` set and ``online_mode`` off it ranks a sliding
window of the live request log instead of a streaming estimator.
"""

from repro.online.controller import ControlSample, OnlineController, OnlineStats
from repro.online.estimators import (
    build_estimator,
    CountMinEstimator,
    CountMinSketch,
    EMAEstimator,
    OnlineEstimator,
)
from repro.online.replan import ReplanLoop

__all__ = [
    "build_estimator",
    "ControlSample",
    "CountMinEstimator",
    "CountMinSketch",
    "EMAEstimator",
    "OnlineController",
    "OnlineEstimator",
    "OnlineStats",
    "ReplanLoop",
]
