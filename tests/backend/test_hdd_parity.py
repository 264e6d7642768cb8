"""HDD tiers on the shared device base: the paper's drive, unchanged.

The storage node builds each tier's device itself: a
:class:`~repro.disk.drive.SimDisk` unless the config names the SSD
backend.  Both devices share :class:`~repro.disk.drive.StorageBackend`
(power machine, fault surface), and a default run never builds or
reports flash.  The whole-run numbers of HDD runs are pinned by the
goldens (``tests/test_goldens.py``).
"""

from repro.backend import SATA_SSD_32GB, SSDBackend
from repro.core import EEVFSConfig, run_eevfs
from repro.core.filesystem import EEVFSCluster
from repro.disk.drive import SimDisk, StorageBackend
from repro.disk.energy import PowerEnvelope
from repro.disk.specs import ATA_80GB_TYPE1, DiskSpec
from repro.sim.engine import Simulator
from repro.traces.synthetic import SyntheticWorkload, generate_synthetic_trace


def test_both_backends_satisfy_the_protocol():
    # One base class for both devices; every spec is a PowerEnvelope,
    # which is all the break-even and power-manager math reads.
    sim = Simulator()
    hdd = SimDisk(sim, ATA_80GB_TYPE1, name="hdd0")
    ssd = SSDBackend(sim, SATA_SSD_32GB, name="ssd0")
    assert isinstance(hdd, StorageBackend)
    assert isinstance(ssd, StorageBackend)
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
