"""Analytic model: the closed-form cross-check of the simulator.

A simulator whose outputs cannot be sanity-checked is a random-number
generator with extra steps.  :mod:`repro.analysis.meanfield` is the one
closed form: it derives the paper's metrics from the workload law and the
power-state parameters -- a renewal model of each disk's sleep/wake
cycles, priced in one place, and mean-value analysis of the request path
bounded by the Pollaczek-Khinchine M/D/1 and M/M/1 cases -- and the test
suite requires the simulator to agree with it in the regimes where it
holds.
"""

from repro.analysis.meanfield import analyze, mg1_mean_response_s

__all__ = ["analyze", "mg1_mean_response_s"]
