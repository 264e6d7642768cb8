"""Integration tests for the DRPM multi-speed baseline."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import drpm_cluster, drpm_config
from repro.core import EEVFSConfig, run_eevfs
from repro.disk.specs import MULTISPEED_80GB
from repro.experiments.baseline_suite import SUITE
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=300), rng=np.random.default_rng(1)
    )


def test_drpm_cluster_swaps_data_disks_only():
    cluster = drpm_cluster()
    for node in cluster.storage_nodes:
        assert node.disk_spec is MULTISPEED_80GB
        assert node.buffer_spec.low_speed is None  # single-speed


def test_drpm_config_is_timer_driven():
    config = drpm_config()
    assert not config.prefetch_enabled
    assert config.power_manage_without_prefetch
    assert not config.use_hints


def test_drpm_saves_energy_without_standby_cycles(trace):
    drpm = SUITE["DRPM"].build().run(trace)
    npf = SUITE["EEVFS-NPF"].build().run(trace)
    assert drpm.energy_j < npf.energy_j
    # The defining property: zero standby transitions, zero spin-up wear.
    assert drpm.transitions == 0


def test_drpm_saves_less_than_eevfs(trace):
    """Low-speed idle (4 W) cannot match standby (1 W): EEVFS's deeper
    sleep wins on joules when idle windows are long."""
    drpm = SUITE["DRPM"].build().run(trace)
    npf = SUITE["EEVFS-NPF"].build().run(trace)
    pf = run_eevfs(trace, EEVFSConfig())
    drpm_savings = 1 - drpm.energy_j / npf.energy_j
    eevfs_savings = 1 - pf.energy_j / npf.energy_j
    assert 0 < drpm_savings < eevfs_savings


def test_drpm_response_penalty_is_transfer_stretch_not_stalls(trace):
    """DRPM trades stalls for slower transfers: its worst-case response
    must stay far below a spin-up stall."""
    drpm = SUITE["DRPM"].build().run(trace)
    npf = SUITE["EEVFS-NPF"].build().run(trace)
    assert drpm.mean_response_s > npf.mean_response_s
    assert drpm.response_times.maximum < npf.response_times.maximum + 2.0


def test_drpm_all_requests_complete(trace):
    assert SUITE["DRPM"].build().run(trace).requests_total == trace.n_requests


def test_drpm_refuses_an_ssd_data_tier():
    """The DRPM node's idle timers shift to low speed, which flash lacks."""
    drpm = SUITE["DRPM"]
    spec = replace(drpm, config=replace(drpm.config, data_backend="ssd"))
    with pytest.raises(ValueError, match="needs a spinning drive"):
        spec.build()
