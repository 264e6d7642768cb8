"""Integration tests: the full EEVFS cluster end to end."""

from collections import Counter

import numpy as np
import pytest

from repro.core import EEVFSConfig, run_eevfs
from repro.core.config import SERVER_BASE_POWER_W
from repro.core.filesystem import EEVFSCluster
from repro.disk.states import DiskState
from repro.traces import generate_berkeley_like_trace, generate_synthetic_trace
from repro.traces.synthetic import MB, SyntheticWorkload


def small_trace(n_requests=120, **kwargs):
    kwargs.setdefault("n_files", 100)
    kwargs.setdefault("mu", 100)
    kwargs.setdefault("data_size_bytes", 2 * MB)
    kwargs.setdefault("inter_arrival_s", 0.2)
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=n_requests, **kwargs),
        rng=np.random.default_rng(7),
    )


@pytest.fixture(scope="module")
def pf_npf_results():
    """One PF/NPF pair shared by the read-only assertions below."""
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=400), rng=np.random.default_rng(3)
    )
    pf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=True, prefetch_files=70))
    npf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))
    return trace, pf, npf


class TestEndToEnd:
    def test_every_request_gets_a_response(self, pf_npf_results):
        trace, pf, npf = pf_npf_results
        assert pf.requests_total == trace.n_requests
        assert npf.requests_total == trace.n_requests

    def test_prefetching_saves_energy(self, pf_npf_results):
        _, pf, npf = pf_npf_results
        assert pf.energy_j < npf.energy_j
        savings = 1 - pf.energy_j / npf.energy_j
        # The paper's band is 3-17 %; defaults land near the middle.
        assert 0.05 < savings < 0.25

    def test_npf_never_transitions(self, pf_npf_results):
        """The paper's NPF comparator does no power management at all."""
        _, pf, npf = pf_npf_results
        assert npf.transitions == 0
        assert pf.transitions > 0

    def test_buffer_hit_rate_matches_trace_coverage(self, pf_npf_results):
        from repro.traces.stats import coverage_of_top_k

        trace, pf, npf = pf_npf_results
        assert pf.buffer_hit_rate == pytest.approx(
            coverage_of_top_k(trace, 70), abs=0.02
        )
        assert npf.buffer_hit_rate == 0.0

    def test_response_time_penalty_is_tolerable(self, pf_npf_results):
        """§VI-C: 'a tolerable response time penalty'."""
        _, pf, npf = pf_npf_results
        assert pf.mean_response_s >= npf.mean_response_s
        assert pf.mean_response_s < 3 * npf.mean_response_s

    def test_energy_decomposition_consistent(self, pf_npf_results):
        _, pf, _ = pf_npf_results
        total = sum(n.total_energy_j for n in pf.nodes)
        assert pf.energy_j == pytest.approx(total)
        for node in pf.nodes:
            assert node.total_energy_j == pytest.approx(
                node.base_energy_j + node.disk_energy_j
            )
            assert node.disk_energy_j == pytest.approx(
                sum(d.energy_j for d in node.disks)
            )

    def test_transitions_decompose_per_disk(self, pf_npf_results):
        _, pf, _ = pf_npf_results
        assert pf.transitions == sum(
            d.transitions for n in pf.nodes for d in n.disks
        )

    def test_summary_keys(self, pf_npf_results):
        _, pf, _ = pf_npf_results
        summary = pf.summary()
        for key in ("energy_j", "transitions", "mean_response_s", "buffer_hit_rate"):
            assert key in summary

    def test_prefetch_stats_reported(self, pf_npf_results):
        _, pf, npf = pf_npf_results
        assert pf.prefetch_files_copied == 70
        assert pf.prefetch_bytes_copied == 70 * 10 * MB
        assert npf.prefetch_files_copied == 0


class TestPlacementIntegration:
    def test_files_spread_across_all_nodes(self):
        trace = small_trace()
        cluster = EEVFSCluster(config=EEVFSConfig())
        cluster.run(trace)
        placed = Counter(node for _, node, _, _ in cluster.server.metadata.snapshot())
        per_node = [placed[n.spec.name] for n in cluster.nodes]
        assert min(per_node) > 0
        assert max(per_node) - min(per_node) <= 1

    def test_request_load_balanced(self):
        """§III-B's purpose: popularity round-robin balances request load."""
        trace = small_trace(n_requests=400)
        result = EEVFSCluster(config=EEVFSConfig(prefetch_enabled=False)).run(trace)
        served = [n.buffer_hits + n.data_disk_hits for n in result.nodes]
        assert max(served) <= 2.5 * (sum(served) / len(served))

    def test_node_local_metadata_consistent_with_server(self):
        trace = small_trace()
        cluster = EEVFSCluster(config=EEVFSConfig())
        cluster.run(trace)
        for node in cluster.nodes:
            for fid in node.metadata.files():
                assert cluster.server.metadata.lookup(fid).node == node.spec.name


class TestAllHitRegime:
    """MU <= 100 with K=70: every request served by buffer disks."""

    def test_disks_sleep_entire_trace(self):
        trace = generate_synthetic_trace(
            SyntheticWorkload(mu=10, n_requests=300), rng=np.random.default_rng(5)
        )
        cluster = EEVFSCluster(config=EEVFSConfig())
        result = cluster.run(trace)
        assert result.buffer_hit_rate == 1.0
        # One sleep per data disk, never woken: transitions == #data disks.
        assert result.transitions == sum(
            n.n_data_disks for n in cluster.cluster.storage_nodes
        )
        for node in cluster.nodes:
            for disk in node.data_disks:
                assert disk.state is DiskState.STANDBY

    def test_no_response_penalty_when_all_hit(self):
        trace = generate_synthetic_trace(
            SyntheticWorkload(mu=10, n_requests=300), rng=np.random.default_rng(5)
        )
        pf = run_eevfs(trace, EEVFSConfig())
        npf = run_eevfs(trace, EEVFSConfig(prefetch_enabled=False))
        assert pf.mean_response_s == pytest.approx(npf.mean_response_s, rel=0.02)


class TestWritePath:
    def test_writes_buffered_when_enabled(self):
        trace = small_trace(write_fraction=0.5)
        result = run_eevfs(trace, EEVFSConfig(write_buffering=True))
        assert result.writes_buffered > 0
        assert result.writes_direct == 0

    def test_writes_direct_when_disabled(self):
        trace = small_trace(write_fraction=0.5)
        result = run_eevfs(trace, EEVFSConfig(write_buffering=False))
        assert result.writes_buffered == 0
        assert result.writes_direct > 0

    def test_write_heavy_workload_completes(self):
        trace = small_trace(write_fraction=1.0)
        result = run_eevfs(trace, EEVFSConfig())
        assert result.requests_total == trace.n_requests


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        trace = small_trace()
        a = run_eevfs(trace, EEVFSConfig(), seed=11)
        b = run_eevfs(trace, EEVFSConfig(), seed=11)
        assert a.energy_j == b.energy_j
        assert a.transitions == b.transitions
        assert a.response_times.samples == b.response_times.samples

    def test_different_seed_changes_spinup_timings(self):
        trace = small_trace(mu=1000, n_files=1000)
        a = run_eevfs(trace, EEVFSConfig(), seed=1)
        b = run_eevfs(trace, EEVFSConfig(), seed=2)
        # Spin-up jitter differs, so response samples differ somewhere.
        assert a.response_times.samples != b.response_times.samples

    def test_seeds_a_multiple_of_two_to_the_32_apart_differ(self):
        """The whole seed picks the streams, not its low 32 bits."""
        trace = small_trace(n_requests=300, mu=1000, n_files=1000)
        a = run_eevfs(trace, EEVFSConfig(), seed=0)
        b = run_eevfs(trace, EEVFSConfig(), seed=2**32)
        assert a.record() != b.record()


class TestConfigurationVariants:
    def test_no_hints_falls_back_to_idle_timer(self):
        trace = small_trace(mu=1000, n_files=1000, inter_arrival_s=0.7, n_requests=200)
        result = run_eevfs(trace, EEVFSConfig(use_hints=False, wake_ahead=False))
        assert result.transitions > 0  # the timers do sleep disks

    def test_power_manage_without_prefetch(self):
        trace = small_trace(n_requests=200, inter_arrival_s=0.7)
        result = run_eevfs(
            trace,
            EEVFSConfig(prefetch_enabled=False, power_manage_without_prefetch=True),
        )
        assert result.transitions > 0
        assert result.buffer_hits == 0

    def test_time_predictor_variant_runs(self):
        trace = small_trace(n_requests=150)
        result = run_eevfs(trace, EEVFSConfig(window_predictor="time"))
        assert result.requests_total == trace.n_requests

    def test_buffer_capacity_limits_prefetch(self):
        trace = small_trace()
        result = run_eevfs(
            trace, EEVFSConfig(buffer_capacity_bytes=10 * MB, prefetch_files=70)
        )
        # 2 MB files, 10 MB budget per node: at most 5 copies per node.
        assert result.prefetch_files_copied <= 5 * 8

    def test_replay_modes_all_complete(self):
        trace = small_trace(n_requests=100)
        for mode in ("open", "paced", "closed"):
            result = EEVFSCluster(config=EEVFSConfig()).run(trace, replay_mode=mode)
            assert result.requests_total == trace.n_requests

    def test_server_energy_is_recorded_beside_the_nodes(self):
        """The paper measures the storage nodes only: ``energy_j`` sums
        the nodes, and the server's joules over the same window ride
        along in ``server_energy_j``."""
        trace = small_trace(n_requests=100)
        result = run_eevfs(trace, EEVFSConfig())
        assert result.energy_j == pytest.approx(
            sum(node.total_energy_j for node in result.nodes)
        )
        assert result.server_energy_j == pytest.approx(
            SERVER_BASE_POWER_W * result.duration_s
        )


class TestBerkeleyTrace:
    def test_all_disks_sleep_for_entire_web_trace(self):
        """§VI-D: 'we were able to place all of the data disks in the
        standby for the entirety of the Berkeley web trace'."""
        trace = generate_berkeley_like_trace(rng=np.random.default_rng(2)).head(300)
        cluster = EEVFSCluster(config=EEVFSConfig())
        result = cluster.run(trace)
        assert result.buffer_hit_rate == 1.0
        for node in cluster.nodes:
            for disk in node.data_disks:
                assert disk.state is DiskState.STANDBY
