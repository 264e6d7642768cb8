"""Integration tests for the DRPM multi-speed baseline."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import drpm_cluster, drpm_config
from repro.baselines.drpm import TwoStageDRPMNode
from repro.core import EEVFSConfig, run_eevfs
from repro.disk.specs import ATA_80GB_TYPE1, MULTISPEED_80GB
from repro.experiments.baseline_suite import SUITE
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload

#: The DRPM comparator on two-stage (low speed, then standby) nodes.
TWO_STAGE = replace(SUITE["DRPM"], node_class=TwoStageDRPMNode)


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=300), rng=np.random.default_rng(1)
    )


def test_drpm_cluster_swaps_data_disks_only():
    cluster = drpm_cluster()
    for node in cluster.storage_nodes:
        assert node.disk_spec is MULTISPEED_80GB
        assert not node.buffer_spec.is_multi_speed


def test_drpm_cluster_rejects_single_speed_disk():
    with pytest.raises(ValueError):
        drpm_cluster(disk=ATA_80GB_TYPE1)


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


class TestTwoStageHybrid:
    def test_two_stage_reaches_standby(self, trace):
        result = TWO_STAGE.build().run(trace)
        assert result.transitions > 0  # some windows graduate to standby
        assert result.requests_total == trace.n_requests

    def test_two_stage_wins_on_skewed_workloads(self):
        """Long per-disk idle windows (skewed popularity) are where the
        second stage pays: standby (1 W) beats low-speed idle (4 W)."""
        skewed = generate_synthetic_trace(
            SyntheticWorkload(n_requests=400, mu=10),
            rng=np.random.default_rng(1),
        )
        npf = SUITE["EEVFS-NPF"].build().run(skewed)
        one = SUITE["DRPM"].build().run(skewed)
        two = TWO_STAGE.build().run(skewed)
        savings_one = 1 - one.energy_j / npf.energy_j
        savings_two = 1 - two.energy_j / npf.energy_j
        assert savings_two > savings_one

    def test_two_stage_pays_response_time(self, trace):
        one = SUITE["DRPM"].build().run(trace)
        two = TWO_STAGE.build().run(trace)
        # Spin-ups re-enter the picture; response can only get worse.
        assert two.mean_response_s >= one.mean_response_s

    def test_second_stage_config_validation(self):
        from repro.disk import ATA_80GB_TYPE1, SimDisk
        from repro.disk.specs import MULTISPEED_80GB
        from repro.sim import Simulator

        sim = Simulator()
        with pytest.raises(ValueError, match="second_stage_after"):
            SimDisk(
                sim,
                ATA_80GB_TYPE1,
                auto_sleep_after=5.0,
                idle_action="standby",
                second_stage_after=10.0,
            )
        with pytest.raises(ValueError):
            SimDisk(
                sim,
                MULTISPEED_80GB,
                auto_sleep_after=5.0,
                idle_action="low_speed",
                second_stage_after=-1.0,
            )

    def test_disk_level_two_stage_sequence(self):
        """IDLE -(t1)-> LOW_IDLE -(t2)-> STANDBY, end to end."""
        from repro.disk import DiskState, SimDisk
        from repro.disk.specs import MULTISPEED_80GB
        from repro.sim import Simulator

        sim = Simulator()
        disk = SimDisk(
            sim,
            MULTISPEED_80GB,
            auto_sleep_after=5.0,
            idle_action="low_speed",
            second_stage_after=10.0,
        )
        sim.run(until=5.5)
        assert disk.state in (DiskState.SHIFT_DOWN, DiskState.LOW_IDLE)
        sim.run(until=20.0)
        assert disk.state is DiskState.STANDBY
