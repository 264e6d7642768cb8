"""Unit tests for cluster and policy configuration (Tables I/II)."""

import ast
import dataclasses

import pytest

from repro.core.config import (
    ClusterSpec,
    default_cluster,
    EEVFSConfig,
    NodeSpec,
    PARAMETER_GRID,
)
from repro.disk.specs import ATA_80GB_TYPE1, ATA_80GB_TYPE2
from repro.net.link import FAST_ETHERNET_BPS, GIGABIT_ETHERNET_BPS
from tests.programs import PACKAGE, program_files


class TestParameterGrid:
    """Table II, verbatim."""

    def test_data_sizes(self):
        assert PARAMETER_GRID["data_size_mb"] == (1, 10, 25, 50)

    def test_mu_values(self):
        assert PARAMETER_GRID["mu"] == (1, 10, 100, 1000)

    def test_inter_arrival(self):
        assert PARAMETER_GRID["inter_arrival_ms"] == (0, 350, 700, 1000)

    def test_prefetch_files(self):
        assert PARAMETER_GRID["prefetch_files"] == (10, 40, 70, 100)

    def test_idle_threshold(self):
        assert PARAMETER_GRID["idle_threshold_s"] == (5,)


class TestNodeSpec:
    def test_valid(self):
        NodeSpec(name="n1", disk_spec=ATA_80GB_TYPE1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"n_data_disks": 0},
            {"nic_bps": 0},
            {"base_power_w": -1},
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(name="n1", disk_spec=ATA_80GB_TYPE1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            NodeSpec(**base)

    def test_buffer_spec_defaults_to_data_spec(self):
        spec = NodeSpec(name="n1", disk_spec=ATA_80GB_TYPE1)
        assert spec.buffer_spec is ATA_80GB_TYPE1

    def test_buffer_spec_override(self):
        spec = NodeSpec(
            name="n1", disk_spec=ATA_80GB_TYPE1, buffer_disk_spec=ATA_80GB_TYPE2
        )
        assert spec.buffer_spec is ATA_80GB_TYPE2


class TestClusterSpec:
    def test_default_cluster_is_the_testbed(self):
        cluster = default_cluster()
        assert cluster.n_nodes == 8
        type1 = [n for n in cluster.storage_nodes if n.disk_spec is ATA_80GB_TYPE1]
        type2 = [n for n in cluster.storage_nodes if n.disk_spec is ATA_80GB_TYPE2]
        assert len(type1) == 4 and len(type2) == 4
        # Table I NICs: type 1 gigabit, type 2 fast ethernet.
        assert all(n.nic_bps == GIGABIT_ETHERNET_BPS for n in type1)
        assert all(n.nic_bps == FAST_ETHERNET_BPS for n in type2)

    def test_default_disks_per_node(self):
        cluster = default_cluster(data_disks_per_node=3)
        assert cluster.n_data_disks == 24

    def test_custom_split(self):
        cluster = default_cluster(n_type1=2, n_type2=1)
        assert cluster.n_nodes == 3

    def test_invalid_split(self):
        with pytest.raises(ValueError):
            default_cluster(n_type1=0, n_type2=0)

    def test_unique_names_enforced(self):
        node = NodeSpec(name="x", disk_spec=ATA_80GB_TYPE1)
        with pytest.raises(ValueError):
            ClusterSpec(storage_nodes=(node, node))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(storage_nodes=())

    def test_negative_jitter_rejected(self):
        node = NodeSpec(name="x", disk_spec=ATA_80GB_TYPE1)
        with pytest.raises(ValueError):
            ClusterSpec(storage_nodes=(node,), spinup_jitter=-0.1)

    def test_zero_outstanding_rejected(self):
        node = NodeSpec(name="x", disk_spec=ATA_80GB_TYPE1)
        with pytest.raises(ValueError):
            ClusterSpec(storage_nodes=(node,), client_max_outstanding=0)

    @pytest.mark.parametrize("kwargs", [{"server_nic_bps": 0}, {"client_nic_bps": -1}])
    def test_invalid(self, kwargs):
        node = NodeSpec(name="x", disk_spec=ATA_80GB_TYPE1)
        with pytest.raises(ValueError):
            ClusterSpec(storage_nodes=(node,), **kwargs)


#: One violating input per validation branch of ``EEVFSConfig``.
INVALID_CONFIGS = [
    {"prefetch_files": -1},
    {"idle_threshold_s": -1},
    {"buffer_capacity_bytes": -1},
    {"wake_ahead": True, "use_hints": False},
    {"window_predictor": "oracle"},
    {"placement_policy": "random"},
    {"stripe_width": 0},
    {"replication_factor": 0},
    {"replication_policy": "none"},
    {"popularity_window_s": 0},
    {"metadata_shards": 0},
    {"metadata_replicas": 0},
    {"metadata_plane": True, "online_mode": True},
    {"online_estimator": "exact"},
    {"online_replan_epoch_s": 0},
    {"online_drift_threshold": 1.5},
    {"online_mode": True, "prefetch_enabled": False},
    {"online_mode": True, "popularity_window_s": 60.0},
    {"request_max_retries": -1},
    {"request_timeout_s": 0},
    {"request_backoff_base_s": -0.1},
    {"data_backend": "nvme"},
    {"buffer_backend": "ssd", "ssd_capacity_mb": 0},
    {"buffer_backend": "ssd", "ssd_channels": 0},
    {"buffer_backend": "ssd", "ssd_gc_free_fraction": 0.5},
    {"buffer_backend": "ssd", "ssd_buffer_idle_s": -1},
    {"ssd_buffer_idle_s": 1.0},
    {"ssd_capacity_mb": 64},
    {"ssd_channels": 2},
    {"ssd_gc_free_fraction": 0.2},
]


class TestEEVFSConfig:
    def test_paper_defaults(self):
        config = EEVFSConfig()
        assert config.prefetch_enabled
        assert config.prefetch_files == 70
        assert config.idle_threshold_s == 5.0
        assert config.use_hints
        assert config.wake_ahead
        assert config.window_predictor == "sequence"

    @pytest.mark.parametrize("kwargs", INVALID_CONFIGS)
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EEVFSConfig(**kwargs)

    def test_each_invalid_case_trips_its_own_check(self):
        """No two cases of ``test_invalid`` stop at the same message, so
        each one reaches a different validation branch."""
        messages = []
        for kwargs in INVALID_CONFIGS:
            with pytest.raises(ValueError) as info:
                EEVFSConfig(**kwargs)
            messages.append(str(info.value))
        assert len(set(messages)) == len(INVALID_CONFIGS)

    def test_as_npf_toggles_prefetch_only(self):
        config = EEVFSConfig(prefetch_files=40)
        npf = config.as_npf()
        assert not npf.prefetch_enabled
        assert npf.prefetch_files == 40
        assert config.prefetch_enabled  # original untouched

    def test_as_pf_round_trip(self):
        config = EEVFSConfig().as_npf().as_pf()
        assert config.prefetch_enabled

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EEVFSConfig().prefetch_files = 10


def _attributes_read_in_src():
    """Names read as ``obj.name`` anywhere in ``src/``, except inside
    ``__post_init__`` methods and in ``core/configio.py``."""
    names = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "core" / "configio.py":
            continue
        visit(ast.parse(path.read_text(), filename=str(path)))
    return names


@pytest.mark.parametrize("spec", [NodeSpec, ClusterSpec, EEVFSConfig])
def test_every_field_is_read_by_the_program(spec):
    """A field only validation and serialisation read is a knob that
    changes nothing: it must go, not linger."""
    read = _attributes_read_in_src()
    unread = [f.name for f in dataclasses.fields(spec) if f.name not in read]
    assert unread == []


#: Fields no program sets, each with the reason it stays a field.
NOT_SET_BY_A_PROGRAM = {
    "write_buffering": (
        "the write-through scenario of tests/golden/scenarios.json pins "
        "its off path"
    ),
    "data_backend": (
        "bench/outcome.py reads it, so it goes with the change that "
        "groups the config and may edit bench/"
    ),
}


def _names_set_by_programs():
    """Names passed as a call keyword (``EEVFSConfig(name=...)``,
    ``replace(config, name=...)``) or written as a string constant
    (``_config_knob("name")``) in a program (:mod:`tests.programs`),
    except in ``core/config.py`` and ``core/configio.py``."""
    skipped = {PACKAGE / "core" / "config.py", PACKAGE / "core" / "configio.py"}
    names = set()
    for path, tree in program_files():
        if path in skipped:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


@pytest.mark.parametrize("spec", [EEVFSConfig])
def test_every_field_is_set_by_a_program(spec):
    """An option that only tests vary is a constant of the module that
    reads it (tests monkeypatch the constant), not a field."""
    set_by_programs = _names_set_by_programs()
    unset = [f.name for f in dataclasses.fields(spec) if f.name not in set_by_programs]
    assert sorted(unset) == sorted(NOT_SET_BY_A_PROGRAM)
