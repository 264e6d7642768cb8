"""Regeneration of the paper's Tables I and II from the live config.

These are configuration tables, not measurements -- regenerating them
verifies that the simulated testbed actually carries the published
parameters (a reproduction smoke test in its own right).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import default_cluster, PARAMETER_GRID
from repro.disk.specs import MB, SATA_120GB_SERVER
from repro.metrics.report import format_table


def table1() -> str:
    """Table I: configuration of the default testbed."""
    cluster = default_cluster()
    # Group storage nodes by (disk spec, nic) into "types".
    types: Dict[tuple, List[str]] = {}
    for node in cluster.storage_nodes:
        key = (node.disk_spec.name, node.nic_bps, node.base_power_w)
        types.setdefault(key, []).append(node.name)

    headers = ["Parameter", "Storage Server Node"]
    type_specs = []
    for i, (_key, names) in enumerate(sorted(types.items()), 1):
        headers.append(f"Storage Node Type {i} (x{len(names)})")
        node = next(n for n in cluster.storage_nodes if n.name == names[0])
        type_specs.append(node)

    def disk_row(label, server_value, per_type):
        return [label, server_value, *per_type]

    rows = [
        disk_row(
            "Network Interconnect (Mb/s)",
            f"{cluster.server_nic_bps * 8 / 1e6:.0f}",
            [f"{n.nic_bps * 8 / 1e6:.0f}" for n in type_specs],
        ),
        disk_row(
            "Disk Type",
            SATA_120GB_SERVER.name,
            [n.disk_spec.name for n in type_specs],
        ),
        disk_row(
            "Disk Capacity (GB)",
            f"{SATA_120GB_SERVER.capacity_bytes / (1024 ** 3):.0f}",
            [f"{n.disk_spec.capacity_bytes / (1024 ** 3):.0f}" for n in type_specs],
        ),
        disk_row(
            "Disk Bandwidth (MB/s)",
            f"{SATA_120GB_SERVER.bandwidth_bps / MB:.0f}",
            [f"{n.disk_spec.bandwidth_bps / MB:.0f}" for n in type_specs],
        ),
        disk_row(
            "Data Disks per Node",
            "-",
            [str(n.n_data_disks) for n in type_specs],
        ),
        disk_row(
            "Node Base Power (W)",
            f"{cluster.server_base_power_w:.0f}",
            [f"{n.base_power_w:.0f}" for n in type_specs],
        ),
    ]
    return format_table(
        headers, rows, title="Table I: Configuration of the Testbed"
    )


def table2() -> str:
    """Table II: system and workload parameters."""
    rows = [
        ["Data Size (MB)", ", ".join(map(str, PARAMETER_GRID["data_size_mb"]))],
        ["File Popularity Rate - The MU Value", ", ".join(map(str, PARAMETER_GRID["mu"]))],
        ["Inter-arrival Delay (ms)", ", ".join(map(str, PARAMETER_GRID["inter_arrival_ms"]))],
        ["Number of Files to Prefetch", ", ".join(map(str, PARAMETER_GRID["prefetch_files"]))],
        ["Disk Idle Threshold (sec)", ", ".join(map(str, PARAMETER_GRID["idle_threshold_s"]))],
    ]
    return format_table(
        ["Parameter", "Values"], rows, title="Table II: System and Workload Parameters"
    )
