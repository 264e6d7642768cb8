"""Tests for the §VII striping extension."""

import numpy as np
import pytest

from repro.core import default_cluster, EEVFSConfig, run_eevfs
from repro.core.metadata import NodeMetadata
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import MB, SyntheticWorkload


class TestStripeMetadata:
    def test_width_one_is_whole_file(self):
        meta = NodeMetadata(n_data_disks=4, stripe_width=1)
        meta.create(1, 100)
        assert meta.stripe_disks(1) == [meta.disk_of(1)]
        assert meta.stripe_size_bytes(1) == 100

    def test_stripes_occupy_consecutive_disks(self):
        meta = NodeMetadata(n_data_disks=4, stripe_width=3)
        meta.create(1, 90)  # primary disk 0
        meta.create(2, 90)  # primary disk 1
        assert meta.stripe_disks(1) == [0, 1, 2]
        assert meta.stripe_disks(2) == [1, 2, 3]

    def test_stripes_wrap_around_the_array(self):
        meta = NodeMetadata(n_data_disks=3, stripe_width=2)
        for fid in (1, 2, 3):
            meta.create(fid, 30)
        assert meta.stripe_disks(3) == [2, 0]  # primary 2 wraps to 0

    def test_stripe_size_is_ceiling_division(self):
        meta = NodeMetadata(n_data_disks=4, stripe_width=3)
        meta.create(1, 100)
        assert meta.stripe_size_bytes(1) == 34  # ceil(100/3)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            NodeMetadata(n_data_disks=2, stripe_width=3)
        with pytest.raises(ValueError):
            NodeMetadata(n_data_disks=2, stripe_width=0)


class TestStripingEndToEnd:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_synthetic_trace(
            SyntheticWorkload(n_requests=250, data_size_bytes=20 * MB),
            rng=np.random.default_rng(4),
        )

    @pytest.fixture(scope="class")
    def cluster(self):
        return default_cluster(data_disks_per_node=4)

    def test_all_requests_complete_when_striped(self, trace, cluster):
        result = run_eevfs(trace, EEVFSConfig(stripe_width=4), cluster=cluster)
        assert result.requests_total == trace.n_requests

    def test_striping_improves_npf_response(self, trace, cluster):
        """Parallel stripe transfers shorten disk service time."""
        narrow = run_eevfs(
            trace, EEVFSConfig(stripe_width=1, prefetch_enabled=False), cluster=cluster
        )
        wide = run_eevfs(
            trace, EEVFSConfig(stripe_width=4, prefetch_enabled=False), cluster=cluster
        )
        assert wide.mean_response_s < narrow.mean_response_s

    def test_striping_reduces_energy_savings(self, trace, cluster):
        """The §VII tension: every miss wakes all stripe disks."""

        def savings(width):
            pf = run_eevfs(trace, EEVFSConfig(stripe_width=width), cluster=cluster)
            npf = run_eevfs(
                trace,
                EEVFSConfig(stripe_width=width, prefetch_enabled=False),
                cluster=cluster,
            )
            return 1 - pf.energy_j / npf.energy_j

        assert savings(4) < savings(1)

    def test_striping_increases_transitions(self, trace, cluster):
        narrow = run_eevfs(trace, EEVFSConfig(stripe_width=1), cluster=cluster)
        wide = run_eevfs(trace, EEVFSConfig(stripe_width=4), cluster=cluster)
        assert wide.transitions > narrow.transitions

    def test_width_clamped_to_disk_count(self, trace):
        """stripe_width above the array size degrades to full-width."""
        cluster = default_cluster(data_disks_per_node=2)
        result = run_eevfs(trace, EEVFSConfig(stripe_width=8), cluster=cluster)
        assert result.requests_total == trace.n_requests

    def test_bytes_served_match_with_striping(self, trace, cluster):
        """Stripes must add up: data disks serve ceil(size/width) each."""
        from repro.core.filesystem import EEVFSCluster

        result = EEVFSCluster(
            cluster=cluster, config=EEVFSConfig(stripe_width=4, prefetch_files=0), obs=True
        ).run(trace)
        total_served = sum(
            span.tags["bytes"]
            for span in result.trace.spans
            if span.kind == "disk.service" and "/data" in span.track
        )
        size = {spec.file_id: spec.size_bytes for spec in trace.files}
        expected = sum(4 * -(-size[file_id] // 4) for file_id in trace.file_ids)
        assert total_served == expected
