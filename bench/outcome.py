"""Simulated outcome of one run: metrics, counters, fingerprint and checks.

Everything here is simulated, so it is a pure function of the workload
and seed: it must repeat exactly across repeats, passes and processes.
The fingerprint is the canonical JSON of the whole outcome.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.core.filesystem import EEVFSCluster, RunResult
from repro.sim.monitor import TallyStat
from repro.traces.model import Trace

MIB = 1024 * 1024

Outcome = Dict[str, float]


def _mean_ms(stat: TallyStat) -> float:
    return stat.mean * 1e3 if stat.count else 0.0


def outcome(cluster: EEVFSCluster, result: RunResult, trace: Trace) -> Outcome:
    """Every simulated metric and counter the benchmark reports for a run."""
    responses = result.response_times
    latency = result.latency_components
    disks = [disk for node in result.nodes for disk in node.disks]
    disk_time_s = sum(sum(d.time_in_state_s.values()) for d in disks)
    online = result.online
    plane = result.metaplane
    served = result.requests_total
    failed = result.requests_failed
    return {
        # conservation
        "requests": len(trace.requests),
        "served": served,
        "failed": failed,
        "outstanding": cluster.client.outstanding,
        # end to end
        "energy_kj": result.energy_j / 1e3,
        "resp_mean_ms": _mean_ms(responses),
        "resp_p99_ms": responses.percentile(99) * 1e3 if served else 0.0,
        "served_frac": served / (served + failed) if served + failed else 0.0,
        # per layer
        "sim.events": cluster.sim.events_processed,
        "net.messages": cluster.fabric.messages_sent,
        "net.mb_sent": cluster.fabric.bytes_sent / MIB,
        "net.dropped": cluster.fabric.messages_dropped,
        "net.lat_ms": _mean_ms(latency["network_server_s"]),
        "client.resp_p50_ms": responses.percentile(50) * 1e3 if served else 0.0,
        "client.retries": result.requests_retried,
        "client.timeouts": result.request_timeouts,
        "client.abandoned": result.requests_abandoned,
        "client.lag_s": result.duration_s - trace.requests[-1].time_s if trace.requests else 0.0,
        "server.hit_rate": result.buffer_hit_rate,
        "server.prefetch_files": result.prefetch_files_copied,
        "server.prefetch_mb": result.prefetch_bytes_copied / MIB,
        "server.unroutable": result.requests_unroutable,
        "node.writes_buffered": result.writes_buffered,
        "node.writes_destaged": result.writes_destaged,
        "node.other_ms": _mean_ms(latency["node_other_s"]),
        "power.spinups": sum(d.spinups for d in disks),
        "power.transitions": result.transitions,
        "power.standby_frac": (
            sum(d.time_in_state_s.get("standby", 0.0) for d in disks) / disk_time_s
            if disk_time_s
            else 0.0
        ),
        "disk.requests": sum(d.requests_served for d in disks),
        "disk.service_ms": _mean_ms(latency["disk_s"]),
        "ssd.host_pages": result.ssd_host_pages_written,
        "ssd.nand_pages": result.ssd_nand_pages_written,
        "ssd.wa": result.ssd_write_amplification,
        "ssd.relocations": result.ssd_pages_relocated,
        "ssd.erases": result.ssd_erases,
        "ssd.cache_hits": result.ssd_cache_hits,
        "online.control_ticks": online.control_ticks if online else 0,
        "online.replans": online.replans_triggered if online else 0,
        "online.replans_skipped": online.replans_skipped if online else 0,
        "online.k_final": online.k_final if online else 0,
        "online.samples": online.samples_recorded if online else 0,
        "meta.elections": plane.elections if plane else 0,
        "meta.leaderless_s": plane.leaderless_s if plane else 0.0,
        "meta.rejections": plane.not_leader_rejections if plane else 0,
        "meta.commits": plane.proposals_committed if plane else 0,
        "faults.events": result.fault_events,
        "faults.failovers": result.requests_failed_over,
    }


def fingerprint(values: Dict[str, float]) -> str:
    """Canonical JSON: equal strings iff every value is bit-identical."""
    return json.dumps(values, sort_keys=True, separators=(",", ":"))


def check_run(values: Outcome, cluster: EEVFSCluster) -> List[str]:
    """Conservation and sanity bounds of one run; returns the failures."""
    problems = []
    if values["served"] + values["failed"] + values["outstanding"] != values["requests"]:
        problems.append(
            f"conservation: served {values['served']} + failed {values['failed']} + "
            f"outstanding {values['outstanding']} != trace length {values['requests']}"
        )
    if values["outstanding"]:
        problems.append(f"conservation: {values['outstanding']} requests outstanding at end")
    if not 0.0 <= values["server.hit_rate"] <= 1.0:
        problems.append(f"sanity: hit rate {values['server.hit_rate']} outside [0, 1]")
    config = cluster.config
    if "ssd" in (config.buffer_backend, config.data_backend) and values["ssd.wa"] <= 0:
        problems.append(f"sanity: SSD tier but write amplification {values['ssd.wa']}")
    if config.metadata_plane and values["meta.elections"] < config.metadata_shards:
        problems.append(
            f"sanity: {values['meta.elections']} elections for "
            f"{config.metadata_shards} shards"
        )
    return problems
