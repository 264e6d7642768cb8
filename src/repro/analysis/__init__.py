"""Analytic models: closed-form cross-checks of the simulator.

A simulator whose outputs cannot be sanity-checked is a random-number
generator with extra steps.  This package derives the paper's metrics
from first principles -- M/G/1 queueing for response time, a renewal
model for sleep/wake energy -- and the test suite requires the simulator
to agree with the analytics in the regimes where the analytics hold.
"""

from repro.analysis.energymodel import predicted_npf_energy_j, predicted_pf_energy_j
from repro.analysis.queueing import mg1_mean_response_s, mg1_mean_wait_s, utilization

__all__ = [
    "mg1_mean_response_s",
    "mg1_mean_wait_s",
    "predicted_npf_energy_j",
    "predicted_pf_energy_j",
    "utilization",
]
