"""Unit tests for paired PF/NPF comparison metrics."""

import numpy as np
import pytest

from repro.core import EEVFSConfig, run_eevfs
from repro.metrics import compare
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


@pytest.fixture(scope="module")
def pair():
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=150), rng=np.random.default_rng(1)
    )
    pf = run_eevfs(trace, EEVFSConfig())
    npf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))
    return pf, npf


def test_compare_orders_arguments(pair):
    pf, npf = pair
    with pytest.raises(ValueError):
        compare(npf, pf)
    with pytest.raises(ValueError):
        compare(pf, pf)


def test_savings_consistent_with_energies(pair):
    pf, npf = pair
    c = compare(pf, npf)
    assert c.energy_savings_pct == pytest.approx(
        100 * (1 - pf.energy_j / npf.energy_j)
    )
    assert c.energy_saved_j == pytest.approx(npf.energy_j - pf.energy_j)


def test_penalty_consistent_with_responses(pair):
    pf, npf = pair
    c = compare(pf, npf)
    assert c.response_penalty_pct == pytest.approx(
        100 * (pf.mean_response_s / npf.mean_response_s - 1)
    )


def test_savings_per_transition(pair):
    pf, npf = pair
    c = compare(pf, npf)
    if pf.transitions:
        assert c.savings_per_transition_j == pytest.approx(
            c.energy_saved_j / pf.transitions
        )


def test_as_dict_keys(pair):
    c = compare(*pair)
    d = c.as_dict()
    for key in (
        "pf_energy_j",
        "npf_energy_j",
        "energy_savings_pct",
        "pf_transitions",
        "response_penalty_pct",
        "pf_hit_rate",
    ):
        assert key in d


def test_mismatched_request_counts_rejected(pair):
    pf, _ = pair
    trace2 = generate_synthetic_trace(
        SyntheticWorkload(n_requests=50), rng=np.random.default_rng(2)
    )
    other_npf = run_eevfs(trace2, EEVFSConfig(prefetch_enabled=False))
    with pytest.raises(ValueError, match="different request counts"):
        compare(pf, other_npf)
