"""Direct unit tests of StorageServer behaviour through a live cluster."""

import gc
import types

import numpy as np

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.core.popularity import WindowEstimator
from repro.traces import generate_synthetic_trace, popularity_ranking
from repro.traces.synthetic import SyntheticWorkload


#: E3's oracle-mode re-prefetch settings (``examples/dynamic_prefetching.py``).
DYNAMIC = dict(online_replan_epoch_s=30.0, online_drift_threshold=0.0)


def build_and_run(config=None, n_requests=120, seed=1, **workload_kwargs):
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=n_requests, **workload_kwargs),
        rng=np.random.default_rng(seed),
    )
    cluster = EEVFSCluster(config=config or EEVFSConfig())
    result = cluster.run(trace)
    return trace, cluster, result


class TestForwarding:
    def test_every_request_forwarded_exactly_once(self):
        trace, _, result = build_and_run()
        assert result.buffer_hits + result.data_disk_hits == trace.n_requests

    def test_replan_source_log_mirrors_the_request_stream(self):
        """§IV's append-only log must record every arrival, in order,
        when a popularity window makes the run replan -- and only then."""
        _, cluster, _ = build_and_run()
        assert cluster.server.replan_source is None
        trace, cluster, _ = build_and_run(
            config=EEVFSConfig(popularity_window_s=60.0, **DYNAMIC)
        )
        source = cluster.server.replan_source
        assert source.recorded == trace.n_requests
        assert sorted(source._file_ids) == sorted(trace.file_ids)

    def test_server_metadata_covers_catalog(self):
        trace, cluster, _ = build_and_run()
        assert len(cluster.server.metadata) == trace.n_files
        for spec in trace.files:
            entry = cluster.server.metadata.lookup(spec.file_id)
            assert entry.size_bytes == spec.size_bytes

    def test_placement_rank_order(self):
        """Rank r lands on node r mod N (§III-B), per the server's own
        popularity ranking."""
        trace, cluster, _ = build_and_run()
        server = cluster.server
        ranking = popularity_ranking(trace)
        for rank, file_id in enumerate(ranking[:16]):
            expected = server.node_names[rank % len(server.node_names)]
            assert server.placement[file_id] == expected

    def test_oracle_run_keeps_no_access_log_of_the_history(self):
        """The oracle ranks the history once, from its access counts; a
        finished run's server holds no per-request log of it."""
        _, cluster, _ = build_and_run(n_requests=400)
        assert cluster.server.replan_source is None
        held = [obj for obj in instance_graph(cluster.server) if isinstance(obj, WindowEstimator)]
        assert held == []


#: Reached through instance data only: classes, modules, functions and
#: frames lead to globals, not to what the server holds.
_NOT_INSTANCE_DATA = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
    types.FrameType,
)


def instance_graph(root):
    """Every object reachable from *root* through instance data."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(ref, _NOT_INSTANCE_DATA):
                seen[id(ref)] = ref
                stack.append(ref)
    return list(seen.values())


class TestPrefetchPlanAtServer:
    def test_plan_covers_k_files(self):
        _, cluster, result = build_and_run(config=EEVFSConfig(prefetch_files=40))
        assert cluster.server.prefetch_plan is not None
        plan = cluster.server.prefetch_plan
        assert sum(len(files) for files in plan.per_node.values()) == 40
        assert result.prefetch_files_copied == 40

    def test_no_plan_under_npf(self):
        _, cluster, _ = build_and_run(config=EEVFSConfig(prefetch_enabled=False))
        assert cluster.server.prefetch_plan is None

    def test_k_zero_behaves_like_no_prefetch_io(self):
        _, cluster, result = build_and_run(config=EEVFSConfig(prefetch_files=0))
        assert result.prefetch_files_copied == 0
        assert result.buffer_hits == 0


class TestReprefetchLoop:
    def test_loop_only_runs_when_configured(self):
        _, cluster, result = build_and_run()
        assert cluster.replanner is None
        assert result.prefetch_files_copied == 70  # the setup plan only

    def test_loop_rounds_scale_with_duration(self):
        config = EEVFSConfig(popularity_window_s=60.0, **DYNAMIC)
        trace, cluster, _ = build_and_run(config=config, inter_arrival_s=0.7)
        expected_rounds = trace.duration_s / 30.0
        assert cluster.replanner.replans >= int(expected_rounds) - 1

    def test_windowed_popularity_uses_recent_accesses(self):
        """With a short window, the re-prefetch plan reflects recency."""
        config = EEVFSConfig(
            popularity_window_s=30.0,
            online_replan_epoch_s=15.0,
            online_drift_threshold=0.0,
        )
        _, cluster, result = build_and_run(config=config, inter_arrival_s=0.5)
        # The system still works end to end with windowed popularity.
        assert result.requests_total == 120
