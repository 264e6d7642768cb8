"""Direct unit tests of the client replay disciplines."""

import numpy as np
import pytest

from repro.core import EEVFSConfig
from repro.core.client import ClientDriver
from repro.core.filesystem import EEVFSCluster
from repro.net.fabric import Fabric
from repro.sim import Simulator
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import MB, SyntheticWorkload


def small_trace(n_requests=60, **kwargs):
    kwargs.setdefault("n_files", 50)
    kwargs.setdefault("data_size_bytes", 2 * MB)
    kwargs.setdefault("inter_arrival_s", 0.2)
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=n_requests, **kwargs),
        rng=np.random.default_rng(8),
    )


class TestConstruction:
    def test_max_outstanding_validated(self):
        sim = Simulator()
        fabric = Fabric(sim)
        with pytest.raises(ValueError):
            ClientDriver(sim, fabric, nic_bps=1e9, max_outstanding=0)

    def test_unknown_mode_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric.add_endpoint("server", 1e9)
        client = ClientDriver(sim, fabric, nic_bps=1e9)
        with pytest.raises(ValueError, match="unknown replay mode"):
            client.replay(small_trace(), mode="bursty")

    def test_epoch_in_the_past_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric.add_endpoint("server", 1e9)
        client = ClientDriver(sim, fabric, nic_bps=1e9)
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="past"):
            client.replay(small_trace(), epoch_s=1.0)


class TestDisciplines:
    @pytest.mark.parametrize("mode", ["open", "paced", "closed"])
    def test_all_requests_answered(self, mode):
        trace = small_trace()
        result = EEVFSCluster(config=EEVFSConfig()).run(trace, replay_mode=mode)
        assert result.requests_total == trace.n_requests

    def test_open_issues_at_trace_times(self):
        """Open loop honours the trace schedule: the run never stretches
        past the trace duration by more than the last response's tail."""
        trace = small_trace(inter_arrival_s=0.5)
        cluster = EEVFSCluster(config=EEVFSConfig(prefetch_enabled=False))
        result = cluster.run(trace, replay_mode="open")
        assert cluster.client.response_times.count == trace.n_requests
        assert result.duration_s < trace.duration_s + 5.0

    def test_paced_window_bounds_outstanding(self):
        """With max_outstanding=1 the paced client is fully serial."""
        trace = small_trace(inter_arrival_s=0.0)  # all due at once
        from dataclasses import replace

        from repro.core import default_cluster

        cluster_spec = replace(default_cluster(), client_max_outstanding=1)
        cluster = EEVFSCluster(cluster=cluster_spec, config=EEVFSConfig())
        result = cluster.run(trace, replay_mode="paced")
        # Serial issue: total duration ~ sum of responses; each response
        # is at least the network+disk floor, so the run stretches well
        # past zero even though every timestamp was 0.
        assert result.duration_s > 0.05 * trace.n_requests
        assert result.requests_total == trace.n_requests

    def test_closed_ignores_timestamps_keeps_gaps(self):
        trace = small_trace(inter_arrival_s=0.4)
        cluster = EEVFSCluster(config=EEVFSConfig(prefetch_enabled=False))
        result = cluster.run(trace, replay_mode="closed")
        # Closed loop: run = sum(response_i + gap_i) >= gaps alone.
        assert result.duration_s >= 0.4 * (trace.n_requests - 1)

    def test_latency_components_empty_for_pure_write_runs(self):
        trace = small_trace(write_fraction=1.0)
        result = EEVFSCluster(config=EEVFSConfig()).run(trace)
        # WriteAcks carry no decomposition; the component stats stay empty.
        assert result.latency_components["disk_s"].count == 0
        assert result.response_times.count == trace.n_requests
