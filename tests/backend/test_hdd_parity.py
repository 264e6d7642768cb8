"""HDD-behind-the-factory parity: the backend refactor changed no numbers.

``StorageNode`` used to construct :class:`SimDisk` directly; it now goes
through ``tier_spec`` + ``build_backend``, and ``SimDisk`` inherits its
power machine and fault surface from
:class:`~repro.disk.drive.StorageBackend`.  For HDD tiers that must be
*invisible*: every metric of a same-seed run -- energies, transitions,
hit counters, response-time tallies down to the last bit of the floats
-- must match the pre-refactor construction path exactly.  ``LegacyNode``
below *is* the pre-refactor path (it overrides the two factory methods
with the literal constructor calls the node used to contain); the tests
run the whole stack both ways on one point from each of the four
Table-II sweeps and compare the runs' records as canonical JSON (whose
floats round-trip, so equality here is bit equality).
"""

import pytest

from repro.backend import build_backend, SATA_SSD_32GB, SSDBackend
from repro.core import EEVFSConfig, run_eevfs
from repro.core.filesystem import canonical_json, EEVFSCluster
from repro.core.node import StorageNode
from repro.disk.drive import SimDisk, StorageBackend
from repro.disk.energy import PowerEnvelope
from repro.disk.specs import ATA_80GB_TYPE1, DiskSpec
from repro.sim.engine import Simulator
from repro.traces.synthetic import MB, SyntheticWorkload, generate_synthetic_trace


class LegacyNode(StorageNode):
    """The pre-refactor node: direct SimDisk construction, no factory."""

    def _build_buffer_disk(self):
        return SimDisk(
            self.sim,
            self.spec.buffer_spec,
            name=f"{self.spec.name}/buffer",
        )

    def _build_data_disk(self, index, timer, spinup_jitter, rng):
        return SimDisk(
            self.sim,
            self.spec.disk_spec,
            name=f"{self.spec.name}/data{index}",
            auto_sleep_after=timer,
            idle_action=self.DISK_IDLE_ACTION,
            second_stage_after=self.DISK_SECOND_STAGE_S,
            spinup_jitter=spinup_jitter,
            rng=(None if rng is None or spinup_jitter == 0 else rng),
        )


#: One representative point from each of the four Table-II sweeps
#: (workload knob or config knob, off the defaults where the sweep
#: varies the workload).
TABLE_II_POINTS = [
    ("data_size", SyntheticWorkload(n_requests=150, data_size_bytes=20 * MB), EEVFSConfig()),
    ("mu", SyntheticWorkload(n_requests=150, mu=500.0), EEVFSConfig()),
    ("inter_arrival", SyntheticWorkload(n_requests=150, inter_arrival_s=0.35), EEVFSConfig()),
    ("prefetch_count", SyntheticWorkload(n_requests=150), EEVFSConfig(prefetch_files=30)),
]


def _run(node_class, workload, config, seed=7):
    trace = generate_synthetic_trace(workload)
    cluster = EEVFSCluster(config=config, seed=seed, node_class=node_class)
    return cluster.run(trace)


@pytest.mark.parametrize(
    "workload,config",
    [(w, c) for _, w, c in TABLE_II_POINTS],
    ids=[name for name, _, _ in TABLE_II_POINTS],
)
def test_hdd_behind_protocol_is_byte_identical(workload, config):
    legacy = _run(LegacyNode, workload, config)
    routed = _run(StorageNode, workload, config)
    assert canonical_json(legacy.record()) == canonical_json(routed.record())


def test_factory_returns_the_same_class_for_hdd():
    # Not a wrapper: an HDD tier gets a SimDisk itself, so
    # repr/identity/isinstance behaviour cannot drift.
    sim = Simulator()
    disk = build_backend(sim, ATA_80GB_TYPE1, name="d0")
    assert type(disk) is SimDisk


def test_both_backends_satisfy_the_protocol():
    # One base class for both devices; every spec is a PowerEnvelope,
    # which is all the break-even and power-manager math reads.
    sim = Simulator()
    hdd = build_backend(sim, ATA_80GB_TYPE1, name="hdd0")
    ssd = build_backend(sim, SATA_SSD_32GB, name="ssd0")
    assert isinstance(hdd, StorageBackend)
    assert isinstance(ssd, StorageBackend)
    assert isinstance(ssd, SSDBackend)
    assert isinstance(ATA_80GB_TYPE1, PowerEnvelope)
    assert isinstance(SATA_SSD_32GB, PowerEnvelope)
    assert isinstance(ATA_80GB_TYPE1, DiskSpec)


def test_default_config_never_builds_an_ssd():
    trace = generate_synthetic_trace(SyntheticWorkload(n_requests=20))
    cluster = EEVFSCluster(config=EEVFSConfig(), seed=1)
    for node in cluster.nodes:
        for disk in node.all_disks:
            assert type(disk) is SimDisk
    cluster.run(trace)


def test_run_eevfs_ssd_fields_default_to_zero_on_hdd_runs():
    trace = generate_synthetic_trace(SyntheticWorkload(n_requests=20))
    result = run_eevfs(trace, EEVFSConfig(), seed=1)
    assert result.ssd_host_pages_written == 0
    assert result.ssd_nand_pages_written == 0
    assert result.ssd_erases == 0
    assert result.ssd_write_amplification == 0.0
