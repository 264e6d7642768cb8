"""Tests for the low-power disk replacement baseline."""

import numpy as np
import pytest

from repro.baselines import lowpower_cluster
from repro.core import EEVFSConfig, run_eevfs
from repro.disk.specs import DISK_CATALOG, LOWPOWER_25IN_160GB
from repro.experiments.baseline_suite import SUITE
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=250), rng=np.random.default_rng(1)
    )


def test_lowpower_spec_in_catalog():
    assert LOWPOWER_25IN_160GB.name in DISK_CATALOG
    assert LOWPOWER_25IN_160GB.power_idle_w < 2.0
    assert LOWPOWER_25IN_160GB.bandwidth_bps < 40 * 1024 * 1024


def test_lowpower_cluster_replaces_every_disk():
    cluster = lowpower_cluster()
    for node in cluster.storage_nodes:
        assert node.disk_spec is LOWPOWER_25IN_160GB
        assert node.buffer_spec is LOWPOWER_25IN_160GB


def test_lowpower_npf_beats_standard_npf_on_energy(trace):
    """The [20]/[21] claim: efficient hardware saves without any policy."""
    lowpower = SUITE["Low-power HW"].build().run(trace)
    standard = SUITE["EEVFS-NPF"].build().run(trace)
    assert lowpower.energy_j < standard.energy_j
    assert lowpower.transitions == 0


def test_lowpower_pays_in_response_time(trace):
    """§II's feasibility caveat: the slow drives cost performance."""
    lowpower = SUITE["Low-power HW"].build().run(trace)
    standard = SUITE["EEVFS-NPF"].build().run(trace)
    assert lowpower.mean_response_s > standard.mean_response_s


def test_eevfs_on_lowpower_disks_is_best_of_both(trace):
    """EEVFS composes with efficient hardware: power-managing the mobile
    drives beats running them flat-out."""
    plain = SUITE["Low-power HW"].build().run(trace)
    managed = run_eevfs(trace, EEVFSConfig(), cluster=lowpower_cluster())
    assert managed.energy_j < plain.energy_j
    assert managed.transitions > 0


def test_eevfs_standard_vs_lowpower_npf_tradeoff(trace):
    """The paper's positioning: EEVFS saves energy *without* new
    hardware; replacing hardware saves more energy but loses performance.
    Both sides of that sentence must hold in the model."""
    eevfs = run_eevfs(trace, EEVFSConfig())
    lowpower = SUITE["Low-power HW"].build().run(trace)
    assert lowpower.energy_j < eevfs.energy_j  # hardware wins on joules
    assert eevfs.mean_response_s < lowpower.mean_response_s  # EEVFS on speed
