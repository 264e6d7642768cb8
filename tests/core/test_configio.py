"""Tests for configuration file round-tripping."""

import io
import json

import pytest

from repro.core import default_cluster, EEVFSConfig
from repro.core.configio import (
    cluster_from_dict,
    cluster_to_dict,
    config_from_dict,
    config_to_dict,
    load_experiment_config,
    save_experiment_config,
)
from repro.disk.specs import ATA_80GB_TYPE1, MULTISPEED_80GB


class TestPolicyRoundTrip:
    def test_defaults(self):
        config = EEVFSConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_customised(self):
        config = EEVFSConfig(
            prefetch_files=40,
            stripe_width=2,
            window_predictor="time",
            popularity_window_s=60.0,
            use_hints=True,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown EEVFSConfig"):
            config_from_dict({"prefetch_files": 70, "warp_drive": True})

    def test_json_serialisable(self):
        json.dumps(config_to_dict(EEVFSConfig()))


class TestClusterRoundTrip:
    def test_default_cluster(self):
        cluster = default_cluster()
        restored = cluster_from_dict(cluster_to_dict(cluster))
        assert restored == cluster

    def test_catalog_disks_serialise_by_name(self):
        data = cluster_to_dict(default_cluster())
        assert data["storage_nodes"][0]["disk_spec"] == ATA_80GB_TYPE1.name

    def test_custom_disk_inlines(self):
        from dataclasses import replace

        custom = ATA_80GB_TYPE1.with_overrides(name="my-disk", bandwidth_bps=77 * 2**20)
        cluster = default_cluster()
        node = replace(cluster.storage_nodes[0], disk_spec=custom)
        cluster = replace(
            cluster, storage_nodes=(node, *cluster.storage_nodes[1:])
        )
        restored = cluster_from_dict(cluster_to_dict(cluster))
        assert restored.storage_nodes[0].disk_spec == custom

    def test_multispeed_disk_round_trips_inline(self):
        from dataclasses import replace

        renamed = MULTISPEED_80GB.with_overrides(name="my-drpm")
        cluster = default_cluster()
        node = replace(cluster.storage_nodes[0], disk_spec=renamed)
        cluster = replace(cluster, storage_nodes=(node, *cluster.storage_nodes[1:]))
        restored = cluster_from_dict(cluster_to_dict(cluster))
        assert restored.storage_nodes[0].disk_spec.low_speed is not None

    def test_unknown_disk_name_rejected(self):
        data = cluster_to_dict(default_cluster())
        data["storage_nodes"][0]["disk_spec"] = "no-such-disk"
        with pytest.raises(ValueError, match="unknown disk"):
            cluster_from_dict(data)

    def test_unknown_keys_rejected(self):
        data = cluster_to_dict(default_cluster())
        data["gpu_count"] = 8
        with pytest.raises(ValueError, match="unknown ClusterSpec"):
            cluster_from_dict(data)
        data2 = cluster_to_dict(default_cluster())
        data2["storage_nodes"][0]["rack"] = 3
        with pytest.raises(ValueError, match="unknown NodeSpec"):
            cluster_from_dict(data2)

    def test_missing_nodes_rejected(self):
        with pytest.raises(ValueError, match="storage_nodes"):
            cluster_from_dict({"server_nic_bps": 1e9})


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        config = EEVFSConfig(prefetch_files=40)
        cluster = default_cluster(data_disks_per_node=3)
        path = save_experiment_config(tmp_path / "exp.json", config, cluster)
        loaded_config, loaded_cluster = load_experiment_config(path)
        assert loaded_config == config
        assert loaded_cluster == cluster

    def test_policy_only_document(self, tmp_path):
        path = save_experiment_config(tmp_path / "p.json", config=EEVFSConfig())
        config, cluster = load_experiment_config(path)
        assert config == EEVFSConfig()
        assert cluster is None

    def test_stream_input(self):
        document = json.dumps({"policy": config_to_dict(EEVFSConfig())})
        config, cluster = load_experiment_config(io.StringIO(document))
        assert config == EEVFSConfig()

    def test_unknown_top_level_rejected(self):
        with pytest.raises(ValueError, match="top-level"):
            load_experiment_config(io.StringIO('{"policies": {}}'))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_rejected(self, constant):
        """Python's json accepts these; no setting means anything at them."""
        document = f'{{"policy": {{"request_backoff_base_s": {constant}}}}}'
        with pytest.raises(ValueError, match="non-finite"):
            load_experiment_config(io.StringIO(document))

    def test_loaded_config_drives_a_run(self, tmp_path):
        """A config document must be directly runnable."""
        import numpy as np

        from repro.core import run_eevfs
        from repro.traces import generate_synthetic_trace
        from repro.traces.synthetic import SyntheticWorkload

        path = save_experiment_config(
            tmp_path / "exp.json",
            EEVFSConfig(prefetch_files=20),
            default_cluster(n_type1=1, n_type2=1),
        )
        config, cluster = load_experiment_config(path)
        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=60), rng=np.random.default_rng(0)
        )
        result = run_eevfs(trace, config=config, cluster=cluster)
        assert result.requests_total == 60
