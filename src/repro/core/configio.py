"""Configuration file I/O: JSON round-tripping for cluster and policy.

Experiments become shareable artifacts: a single JSON document pins the
hardware (nodes, disks by catalog name or inline spec) and the policy
(every :class:`EEVFSConfig` field), and the CLI accepts it via
``--config``.  Unknown keys are rejected -- a typo must fail loudly, not
silently run the default.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, NoReturn, Optional, TextIO, Union

from repro.core.config import ClusterSpec, EEVFSConfig, NodeSpec
from repro.disk.specs import DISK_CATALOG, DiskSpec, LowSpeedProfile


def config_to_dict(config: EEVFSConfig) -> Dict[str, Any]:
    """JSON-serialisable dict of a policy config."""
    return dataclasses.asdict(config)


def config_from_dict(data: Dict[str, Any]) -> EEVFSConfig:
    """Inverse of :func:`config_to_dict`; rejects unknown keys."""
    known = {f.name for f in dataclasses.fields(EEVFSConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown EEVFSConfig keys: {sorted(unknown)}")
    return EEVFSConfig(**data)


def _disk_to_json(spec: DiskSpec) -> Union[str, Dict[str, Any]]:
    """Catalog drives serialise by name; custom drives inline."""
    if DISK_CATALOG.get(spec.name) == spec:
        return spec.name
    return dataclasses.asdict(spec)


def _disk_from_json(value: Union[str, Dict[str, Any]]) -> DiskSpec:
    if isinstance(value, str):
        try:
            return DISK_CATALOG[value]
        except KeyError:
            raise ValueError(
                f"unknown disk {value!r}; catalog: {sorted(DISK_CATALOG)}"
            ) from None
    data = dict(value)
    low = data.pop("low_speed", None)
    if low is not None:
        low = LowSpeedProfile(**low)
    return DiskSpec(low_speed=low, **data)


def cluster_to_dict(cluster: ClusterSpec) -> Dict[str, Any]:
    """JSON-serialisable dict of a cluster spec."""
    return {
        "storage_nodes": [
            {
                "name": node.name,
                "disk_spec": _disk_to_json(node.disk_spec),
                "n_data_disks": node.n_data_disks,
                "nic_bps": node.nic_bps,
                "base_power_w": node.base_power_w,
                "buffer_disk_spec": (
                    None
                    if node.buffer_disk_spec is None
                    else _disk_to_json(node.buffer_disk_spec)
                ),
            }
            for node in cluster.storage_nodes
        ],
        "server_nic_bps": cluster.server_nic_bps,
        "server_base_power_w": cluster.server_base_power_w,
        "client_nic_bps": cluster.client_nic_bps,
        "fabric_latency_s": cluster.fabric_latency_s,
        "connect_s": cluster.connect_s,
        "spinup_jitter": cluster.spinup_jitter,
        "client_max_outstanding": cluster.client_max_outstanding,
    }


def cluster_from_dict(data: Dict[str, Any]) -> ClusterSpec:
    """Inverse of :func:`cluster_to_dict`; rejects unknown keys."""
    data = dict(data)
    try:
        node_dicts = data.pop("storage_nodes")
    except KeyError:
        raise ValueError("cluster config needs 'storage_nodes'") from None
    nodes = []
    for node_data in node_dicts:
        node_data = dict(node_data)
        unknown = set(node_data) - {
            "name",
            "disk_spec",
            "n_data_disks",
            "nic_bps",
            "base_power_w",
            "buffer_disk_spec",
        }
        if unknown:
            raise ValueError(f"unknown NodeSpec keys: {sorted(unknown)}")
        disk = _disk_from_json(node_data.pop("disk_spec"))
        buffer_value = node_data.pop("buffer_disk_spec", None)
        buffer_spec = None if buffer_value is None else _disk_from_json(buffer_value)
        nodes.append(
            NodeSpec(disk_spec=disk, buffer_disk_spec=buffer_spec, **node_data)
        )
    known = {f.name for f in dataclasses.fields(ClusterSpec)} - {"storage_nodes"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown ClusterSpec keys: {sorted(unknown)}")
    return ClusterSpec(storage_nodes=tuple(nodes), **data)


def save_experiment_config(
    path: Union[str, Path],
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
) -> Path:
    """Write a combined {"policy": ..., "cluster": ...} JSON document."""
    document: Dict[str, Any] = {}
    if config is not None:
        document["policy"] = config_to_dict(config)
    if cluster is not None:
        document["cluster"] = cluster_to_dict(cluster)
    path = Path(path)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def _reject_constant(name: str) -> NoReturn:
    """``json.loads`` hook for ``NaN``, ``Infinity`` and ``-Infinity``:
    no setting is meaningful at a non-finite value, and ``NaN`` passes
    every ``< 0`` check."""
    raise ValueError(f"non-finite number {name} in experiment config")


def load_experiment_config(
    source: Union[str, Path, TextIO],
) -> "tuple[Optional[EEVFSConfig], Optional[ClusterSpec]]":
    """Read a document written by :func:`save_experiment_config`."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    document = json.loads(text, parse_constant=_reject_constant)
    unknown = set(document) - {"policy", "cluster"}
    if unknown:
        raise ValueError(f"unknown top-level keys: {sorted(unknown)}")
    config = (
        config_from_dict(document["policy"]) if "policy" in document else None
    )
    cluster = (
        cluster_from_dict(document["cluster"]) if "cluster" in document else None
    )
    return config, cluster
