"""Direct unit tests of StorageNode internals (no full cluster).

The integration suite exercises the node through the wire protocol;
these tests poke the routing/hints/power logic directly for precise
failure localisation.
"""

import pytest

from repro.core.config import EEVFSConfig, NodeSpec
from repro.core.node import StorageNode
from repro.core.protocol import AccessHints
from repro.disk.specs import ATA_80GB_TYPE1
from repro.net.fabric import Fabric
from repro.sim import Simulator

MB = 1024 * 1024


def make_node(config=None, n_data_disks=2, **node_kwargs):
    sim = Simulator()
    fabric = Fabric(sim)
    fabric.add_endpoint("server", 1e9)
    spec = NodeSpec(
        name="n1",
        disk_spec=ATA_80GB_TYPE1,
        n_data_disks=n_data_disks,
        **node_kwargs,
    )
    node = StorageNode(sim, fabric, spec, config or EEVFSConfig())
    return sim, node


def create_files(node, n=6, size=10 * MB):
    for fid in range(n):
        node.metadata.create(fid, size)


class TestRouteRead:
    def test_unprefetched_goes_to_owning_disk(self):
        _, node = make_node()
        create_files(node)
        disk_index, served_by = node._route_read(3)
        assert disk_index == node.metadata.disk_of(3)
        assert served_by == f"data{disk_index}"
        assert node.data_disk_hits == 1

    def test_prefetched_goes_to_buffer(self):
        _, node = make_node()
        create_files(node)
        node.metadata.mark_prefetched(2)
        disk_index, served_by = node._route_read(2)
        assert disk_index is None
        assert served_by == "buffer"
        assert node.buffer_hits == 1

    def test_dirty_write_goes_to_buffer(self):
        """A read of freshly written (staged) data must hit the buffer
        copy, which is the only current version."""
        sim, node = make_node()
        create_files(node)
        node.write_buffer.stage(4, 10 * MB, time_s=0.0)
        disk_index, served_by = node._route_read(4)
        assert disk_index is None
        assert served_by == "buffer"

    def test_dirty_beats_unprefetched(self):
        _, node = make_node()
        create_files(node)
        assert node._route_read(0)[0] is not None
        node.write_buffer.stage(0, 1, time_s=0.0)
        assert node._route_read(0)[0] is None


class TestInstallHints:
    def test_hints_skip_prefetched_files(self):
        sim, node = make_node()
        create_files(node, n=4)
        node.metadata.mark_prefetched(0)
        hints = AccessHints(
            arrivals={0: (1.0, 3.0), 1: (2.0,), 99: (4.0,)},  # 99 not local
            epoch_s=10.0,
        )
        node._install_hints(hints)
        # File 1 lives on disk 1 (round-robin create order 0->d0, 1->d1).
        disk_of_1 = node.metadata.disk_of(1)
        assert node.power.next_access_time(disk_of_1) == pytest.approx(12.0)
        # Disk of file 0 has no pattern entries (its only traffic was
        # prefetched away).
        other = node.metadata.disk_of(0)
        if other != disk_of_1:
            assert node.power.next_access_time(other) is None

    def test_hints_preserve_stream_positions(self):
        """Sequence numbers must index the node's *whole* stream, hits
        included -- that is what the arrival counter counts."""
        sim, node = make_node()
        create_files(node, n=4)
        node.metadata.mark_prefetched(0)
        hints = AccessHints(
            arrivals={0: (1.0,), 1: (2.0,)},  # stream: [file0@1, file1@2]
            epoch_s=0.0,
        )
        node._install_hints(hints)
        disk_of_1 = node.metadata.disk_of(1)
        # file 1's access is position 1 of the stream (0 was the hit).
        assert list(node.power._future_seqs[disk_of_1]) == [1]

    def test_hints_ignored_without_power_management(self):
        sim, node = make_node(config=EEVFSConfig(prefetch_enabled=False))
        create_files(node)
        node._install_hints(AccessHints(arrivals={1: (5.0,)}, epoch_s=0.0))
        assert not node.power._enabled

    def test_striped_file_hints_cover_all_stripe_disks(self):
        sim, node = make_node(
            config=EEVFSConfig(stripe_width=2), n_data_disks=4
        )
        create_files(node, n=4)
        node._install_hints(AccessHints(arrivals={0: (7.0,)}, epoch_s=0.0))
        for disk in node.metadata.stripe_disks(0):
            assert node.power.next_access_time(disk) == pytest.approx(7.0)


class TestEnergyAccessors:
    def test_energy_decomposes(self):
        sim, node = make_node()
        sim.run(until=50.0)
        node.finalize()
        assert node.energy_j() == pytest.approx(
            node.base_energy_j() + node.disk_energy_j()
        )
        assert node.base_energy_j() == pytest.approx(node.spec.base_power_w * 50.0)

    def test_transition_count_sums_disks(self):
        # Power management off so the only transition is the explicit one.
        sim, node = make_node(config=EEVFSConfig(power_management_enabled=False))
        node.data_disks[0].request_sleep()
        sim.run(until=10.0)
        assert node.transition_count() == 1
