"""Integration tests for the baseline comparators."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import alwayson_config, maid_config, pdc_config
from repro.core import EEVFSConfig, run_eevfs
from repro.core.filesystem import EEVFSCluster
from repro.experiments.baseline_suite import SUITE
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import MB, SyntheticWorkload


def make_trace(n_requests=300, seed=1, **kwargs):
    kwargs.setdefault("inter_arrival_s", 0.7)
    return generate_synthetic_trace(
        SyntheticWorkload(n_requests=n_requests, **kwargs),
        rng=np.random.default_rng(seed),
    )


@pytest.fixture(scope="module")
def trace():
    return make_trace()


class TestConfigs:
    def test_npf_config(self):
        config = EEVFSConfig().as_npf()
        assert not config.prefetch_enabled

    def test_alwayson_config(self):
        config = alwayson_config()
        assert config.prefetch_enabled
        assert not config.power_management_enabled

    def test_maid_config(self):
        config = maid_config(cache_bytes=100 * MB)
        assert not config.prefetch_enabled
        assert config.power_manage_without_prefetch
        assert not config.use_hints
        assert config.buffer_capacity_bytes == 100 * MB

    def test_pdc_config(self):
        config = pdc_config()
        assert config.placement_policy == "concentrate"
        assert not config.prefetch_enabled


class TestNPF:
    def test_npf_has_zero_transitions_and_no_hits(self, trace):
        result = SUITE["EEVFS-NPF"].build().run(trace)
        assert result.transitions == 0
        assert result.buffer_hits == 0
        assert result.requests_total == trace.n_requests


class TestAlwaysOn:
    def test_caching_without_sleeping_saves_nothing(self, trace):
        """Isolation result: the buffer disk cache alone does not reduce
        whole-node energy -- the sleep policy is where the joules are."""
        on = SUITE["Always-on"].build().run(trace)
        npf = SUITE["EEVFS-NPF"].build().run(trace)
        assert on.transitions == 0
        assert on.buffer_hit_rate > 0.5
        assert on.energy_j == pytest.approx(npf.energy_j, rel=0.02)

    def test_pf_beats_alwayson(self, trace):
        pf = run_eevfs(trace, EEVFSConfig())
        on = SUITE["Always-on"].build().run(trace)
        assert pf.energy_j < on.energy_j


class TestMAID:
    def test_maid_caches_on_demand(self, trace):
        result = SUITE["MAID"].build().run(trace)
        # Reactive cache: first access to a file always misses.
        distinct = len(trace.accessed_file_ids())
        assert result.data_disk_hits >= distinct
        assert result.buffer_hits > 0
        assert result.requests_total == trace.n_requests

    def test_maid_hit_rate_below_prefetch_oracle(self, trace):
        """EEVFS prefetches *before* the first access; MAID cannot."""
        maid = SUITE["MAID"].build().run(trace)
        pf = run_eevfs(trace, EEVFSConfig(prefetch_files=70))
        assert maid.buffer_hit_rate <= pf.buffer_hit_rate

    def test_maid_saves_energy_vs_npf(self, trace):
        maid = SUITE["MAID"].build().run(trace)
        npf = SUITE["EEVFS-NPF"].build().run(trace)
        assert maid.energy_j < npf.energy_j

    def test_maid_worse_response_than_eevfs(self, trace):
        """Reactive wake-ups (no look-ahead) cost response time (§II)."""
        maid = SUITE["MAID"].build().run(trace)
        pf = run_eevfs(trace, EEVFSConfig())
        assert maid.mean_response_s > pf.mean_response_s

    def test_tiny_cache_degrades_hit_rate(self, trace):
        big = SUITE["MAID"].build().run(trace)
        small = replace(SUITE["MAID"], config=maid_config(cache_bytes=30 * MB)).build().run(trace)
        assert small.buffer_hit_rate < big.buffer_hit_rate


class TestPDC:
    def test_pdc_concentrates_load(self, trace):
        result = EEVFSCluster(config=pdc_config()).run(trace)
        served = [n.buffer_hits + n.data_disk_hits for n in result.nodes]
        # The hottest node carries far more than the coldest.
        assert max(served) > 3 * max(1, min(served))

    def test_pdc_saves_energy_vs_npf(self, trace):
        pdc = SUITE["PDC"].build().run(trace)
        npf = SUITE["EEVFS-NPF"].build().run(trace)
        assert pdc.energy_j < npf.energy_j

    def test_pdc_no_buffer_copies(self, trace):
        result = SUITE["PDC"].build().run(trace)
        assert result.prefetch_files_copied == 0
        assert result.buffer_hits == 0


class TestOracleAndStale:
    def test_stale_popularity_never_beats_oracle_hit_rate(self):
        trace = make_trace(seed=1)
        history = make_trace(seed=99)  # same catalog, different draws
        oracle = run_eevfs(trace, EEVFSConfig())
        stale = EEVFSCluster(config=EEVFSConfig()).run(trace, history=history)
        assert stale.buffer_hit_rate <= oracle.buffer_hit_rate + 0.02

    def test_empty_history_is_not_the_replay_trace(self):
        # An empty popularity log ranks nothing; it must not fall back to
        # the replay trace, which is the oracle run.
        trace = make_trace(n_requests=100)
        oracle = run_eevfs(trace, EEVFSConfig())
        cold = EEVFSCluster(config=EEVFSConfig()).run(trace, history=trace.head(0))
        assert cold.buffer_hits < oracle.buffer_hits
        assert cold.energy_j != oracle.energy_j

    def test_mismatched_catalog_rejected(self):
        trace = make_trace()
        history = generate_synthetic_trace(
            SyntheticWorkload(n_files=10, n_requests=10),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="share a catalog"):
            EEVFSCluster().run(trace, history=history)
