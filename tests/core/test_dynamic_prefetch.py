"""Tests for dynamic re-prefetching and the drifting workload."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.core.metadata import NodeMetadata
from repro.traces.nonstationary import (
    DriftingWorkload,
    generate_drifting_trace,
    hot_set_displacement,
)
from repro.traces.stats import working_set_size

#: E3's oracle-mode re-prefetch config (``ablate_dynamic_prefetch``):
#: rank the last 60 s every 30 s, with no drift gate.
DYNAMIC = EEVFSConfig(
    popularity_window_s=60.0, online_replan_epoch_s=30.0, online_drift_threshold=0.0
)


class TestDriftingWorkload:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_files": 0},
            {"n_requests": -1},
            {"mu": 0},
            {"inter_arrival_s": -1},
            {"drift_files_per_s": -0.1},
            {"data_size_bytes": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DriftingWorkload(**kwargs)

    def test_displacement_formula(self):
        w = DriftingWorkload(n_requests=101, inter_arrival_s=1.0, drift_files_per_s=2.0)
        assert hot_set_displacement(w) == pytest.approx(200.0)

    def test_zero_drift_matches_stationary_spread(self):
        w = DriftingWorkload(drift_files_per_s=0.0, n_requests=500)
        trace = generate_drifting_trace(w, rng=np.random.default_rng(1))
        assert working_set_size(trace) < 100

    def test_drift_widens_the_touched_set(self):
        still = generate_drifting_trace(
            DriftingWorkload(drift_files_per_s=0.0, n_requests=500),
            rng=np.random.default_rng(1),
        )
        moving = generate_drifting_trace(
            DriftingWorkload(drift_files_per_s=1.0, n_requests=500),
            rng=np.random.default_rng(1),
        )
        assert working_set_size(moving) > 2 * working_set_size(still)

    def test_hotspot_actually_moves(self):
        trace = generate_drifting_trace(
            DriftingWorkload(drift_files_per_s=1.0, n_requests=600),
            rng=np.random.default_rng(2),
        )
        early = np.mean([r.file_id for r in trace.requests[:100]])
        late = np.mean([r.file_id for r in trace.requests[-100:]])
        assert late > early + 200

    def test_determinism(self):
        a = generate_drifting_trace(DriftingWorkload(), rng=np.random.default_rng(5))
        b = generate_drifting_trace(DriftingWorkload(), rng=np.random.default_rng(5))
        assert [r.file_id for r in a] == [r.file_id for r in b]


class TestUnmarkPrefetched:
    def test_unmark_frees_space(self):
        meta = NodeMetadata(n_data_disks=1, buffer_capacity_bytes=100)
        meta.create(1, 100)
        meta.create(2, 100)
        meta.mark_prefetched(1)
        assert not meta.can_prefetch(2)
        meta.unmark_prefetched(1)
        assert meta.buffer_free_bytes() == 100
        assert meta.can_prefetch(2)

    def test_unmark_unknown_raises(self):
        meta = NodeMetadata(n_data_disks=1)
        meta.create(1, 10)
        with pytest.raises(KeyError):
            meta.unmark_prefetched(1)


class TestDynamicPrefetchConfig:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            EEVFSConfig(popularity_window_s=60.0, online_replan_epoch_s=0)
        with pytest.raises(ValueError):
            EEVFSConfig(popularity_window_s=-1)

    def test_window_conflicts_with_online_mode(self):
        """Online mode ranks by its streaming estimator; a window would
        be silently ignored."""
        with pytest.raises(ValueError, match="popularity_window_s"):
            EEVFSConfig(online_mode=True, popularity_window_s=60.0)

    def test_window_conflicts_with_metadata_plane(self):
        """The replan source is fed by the storage server's request
        stream, which the metadata plane routes around."""
        with pytest.raises(ValueError, match="metadata_plane"):
            EEVFSConfig(metadata_plane=True, popularity_window_s=60.0)


class TestDynamicPrefetchEndToEnd:
    @pytest.fixture(scope="class")
    def drifting_trace(self):
        return generate_drifting_trace(
            DriftingWorkload(n_requests=500), rng=np.random.default_rng(3)
        )

    @pytest.fixture(scope="class")
    def history(self, drifting_trace):
        return drifting_trace.head(80)

    def test_reprefetch_rounds_happen(self, drifting_trace, history):
        cluster = EEVFSCluster(config=DYNAMIC)
        result = cluster.run(drifting_trace, history=history)
        assert cluster.replanner.replans > 3
        assert result.prefetch_files_copied > 70  # copies beyond the initial set

    def test_window_alone_replans(self, drifting_trace, history):
        """A popularity window is the switch: the default epoch (60 s)
        and drift gate (0.1) then decide when the buffers move."""
        cluster = EEVFSCluster(config=EEVFSConfig(popularity_window_s=60.0))
        result = cluster.run(drifting_trace, history=history)
        assert cluster.replanner.replans > 0
        assert result.prefetch_files_copied > 70
        assert result.online is None  # the oracle arm reports no OnlineStats

    def test_oracle_replans_are_traced_like_online_ones(self, drifting_trace, history):
        """The oracle arm replans through the online loop, so its epochs
        show up as ``online.estimate`` spans and ``online.replan`` instants;
        with no controller there are no control ticks."""
        result = EEVFSCluster(config=DYNAMIC, obs=True).run(
            drifting_trace, history=history
        )
        kinds = set(result.trace.span_kinds())
        assert {"online.estimate", "online.replan"} <= kinds
        assert "online.control" not in kinds

    def test_evictions_keep_buffer_bounded(self, drifting_trace, history):
        from repro.traces.synthetic import MB

        config = replace(DYNAMIC, buffer_capacity_bytes=700 * MB)  # 70 x 10 MB
        cluster = EEVFSCluster(config=config)
        result = cluster.run(drifting_trace, history=history)
        for node in cluster.nodes:
            assert node.metadata.buffer_free_bytes() >= 0
        held = sum(len(n.metadata.prefetched_files()) for n in cluster.nodes)
        assert result.prefetch_files_copied > held  # later rounds evicted copies

    def test_dynamic_beats_static_hit_rate_under_drift(self, drifting_trace, history):
        """The extension's headline: tracking popularity beats a one-shot
        prefetch once the hot set moves."""
        static = EEVFSCluster(config=EEVFSConfig()).run(
            drifting_trace, history=history
        )
        dynamic = EEVFSCluster(config=DYNAMIC).run(drifting_trace, history=history)
        assert dynamic.buffer_hit_rate > 1.5 * static.buffer_hit_rate

    def test_no_reprefetch_on_stationary_default(self):
        """Without the option, behaviour is the paper's one-shot prefetch."""
        from repro.traces.synthetic import SyntheticWorkload, generate_synthetic_trace

        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=150), rng=np.random.default_rng(1)
        )
        cluster = EEVFSCluster(config=EEVFSConfig())
        result = cluster.run(trace)
        assert cluster.replanner is None
        assert result.prefetch_files_copied == 70
