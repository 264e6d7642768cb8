"""First-principles energy predictions for PF and NPF runs.

The whole-cluster energy decomposes as::

    E = Σ_nodes [ P_base · T  +  Σ_disks ∫ P_disk(t) dt ]

For NPF every disk idles between services; for PF each data disk's
timeline is a renewal process of (sleep cycle | serve burst) driven by
its miss stream.  With the trace knowable in advance (as in the paper's
methodology), both integrals have closed forms; the simulator's totals
must land within a few percent of them on unsaturated workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.core.config import ClusterSpec
from repro.disk.specs import DiskSpec
from repro.traces.model import Trace

if TYPE_CHECKING:
    from repro.core.filesystem import RunResult


@dataclass(frozen=True)
class EnergyPrediction:
    """A decomposed closed-form energy estimate."""

    base_j: float
    buffer_disks_j: float
    data_disks_j: float

    @property
    def total_j(self) -> float:
        return self.base_j + self.buffer_disks_j + self.data_disks_j


def _node_disk_idle_energy(spec: DiskSpec, duration_s: float) -> float:
    return spec.power_idle_w * duration_s


def _active_premium(spec: DiskSpec, busy_s: float) -> float:
    """Extra joules of ACTIVE over IDLE for *busy_s* of service."""
    return (spec.power_active_w - spec.power_idle_w) * busy_s


def predicted_npf_energy_j(
    cluster: ClusterSpec,
    trace: Trace,
    duration_s: Optional[float] = None,
) -> EnergyPrediction:
    """NPF: all disks idle except while serving; no transitions.

    Assumes balanced placement (the §III-B guarantee) so each node serves
    ~1/N of the bytes, and each node's files spread evenly over its data
    disks.  *duration_s* defaults to the trace duration.
    """
    duration = duration_s if duration_s is not None else trace.duration_s
    n_nodes = cluster.n_nodes
    bytes_per_node = trace.total_bytes / n_nodes

    base = sum(node.base_power_w for node in cluster.storage_nodes) * duration
    buffer_j = 0.0
    data_j = 0.0
    for node in cluster.storage_nodes:
        buffer_j += _node_disk_idle_energy(node.buffer_spec, duration)
        busy = bytes_per_node / node.disk_spec.bandwidth_bps
        data_j += (
            node.n_data_disks * _node_disk_idle_energy(node.disk_spec, duration)
            + _active_premium(node.disk_spec, busy)
        )
    return EnergyPrediction(base_j=base, buffer_disks_j=buffer_j, data_disks_j=data_j)


def predicted_pf_energy_j(
    cluster: ClusterSpec,
    trace: Trace,
    hit_rate: float,
    sleep_fraction: float,
    transitions_per_disk: float,
    duration_s: Optional[float] = None,
) -> EnergyPrediction:
    """PF: buffer disks absorb ``hit_rate`` of the service work; data
    disks spend ``sleep_fraction`` of the run in standby and pay
    ``transitions_per_disk`` spin-down/spin-up pairs' energy.

    The three behavioural inputs come either from the power-management
    plan (a priori) or from a measured run (validation); this function
    supplies the *accounting*, which is what needs cross-checking.
    """
    if not 0.0 <= hit_rate <= 1.0:
        raise ValueError(f"hit_rate must be in [0, 1], got {hit_rate!r}")
    if not 0.0 <= sleep_fraction <= 1.0:
        raise ValueError(f"sleep_fraction must be in [0, 1]")
    duration = duration_s if duration_s is not None else trace.duration_s
    n_nodes = cluster.n_nodes
    bytes_per_node = trace.total_bytes / n_nodes

    base = sum(node.base_power_w for node in cluster.storage_nodes) * duration
    buffer_j = 0.0
    data_j = 0.0
    for node in cluster.storage_nodes:
        spec = node.disk_spec
        buffer_spec = node.buffer_spec
        buffer_busy = hit_rate * bytes_per_node / buffer_spec.bandwidth_bps
        buffer_j += (
            _node_disk_idle_energy(buffer_spec, duration)
            + _active_premium(buffer_spec, buffer_busy)
        )
        miss_busy = (1.0 - hit_rate) * bytes_per_node / spec.bandwidth_bps
        per_disk_idleish = duration * (
            (1.0 - sleep_fraction) * spec.power_idle_w
            + sleep_fraction * spec.power_standby_w
        )
        cycle_energy = transitions_per_disk / 2.0 * (
            spec.spindown_energy_j
            + spec.spinup_energy_j
            - spec.power_standby_w * (spec.spindown_s + spec.spinup_s)
        )
        data_j += (
            node.n_data_disks * (per_disk_idleish + cycle_energy)
            + _active_premium(spec, miss_busy)
        )
    return EnergyPrediction(base_j=base, buffer_disks_j=buffer_j, data_disks_j=data_j)


def observed_sleep_fraction(result: "RunResult") -> float:
    """Mean standby fraction of the data disks in a measured RunResult."""
    total = 0.0
    count = 0
    for node in result.nodes:
        for disk in node.disks:
            if "data" not in disk.name:
                continue
            span = sum(disk.time_in_state_s.values())
            if span > 0:
                total += disk.time_in_state_s.get("standby", 0.0) / span
                count += 1
    return total / count if count else 0.0
