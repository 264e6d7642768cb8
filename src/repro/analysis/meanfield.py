"""Closed-form mean-field backend for large-fleet energy estimates.

The discrete simulator resolves every message and disk request; at fleet
scale that is the throughput bottleneck.  This
module computes the same headline quantities -- buffer-hit ratio,
per-state disk occupancy, state transitions, and PF/NPF energy -- in
closed form from the workload law and the power-state parameters,
following the mean-field treatment of large storage populations in
"Analysis of a Stochastic Model of Replication in Large Distributed
Storage Systems" (PAPERS.md): individual disks decouple, and each sees a
thinned renewal stream determined by the popularity masses routed to it.

Model summary
-------------

* **Popularity.**  The synthetic workload draws file ids as
  ``Poisson(mu) mod n_files`` (see ``repro.traces.synthetic``), so the
  per-file access probability is the *folded* Poisson pmf.  Sorting it
  descending gives the oracle ranking the server plans from.
* **Hit ratio.**  Round-robin placement puts global rank ``r`` on node
  ``r mod N``; the top-``K`` ranks are prefetched, so the buffer-hit
  ratio is the top-``K`` probability mass.
* **Per-disk streams.**  Within a node, creation order is descending
  popularity and disks are assigned round-robin, so each data disk owns
  an explicit set of ranks.  Under i.i.d. file draws the number of node
  arrivals between consecutive accesses to one disk is geometric; gap
  lengths are that geometric times the node's inter-arrival pace, which
  is what the sequence predictor in :mod:`repro.core.power` estimates.
* **Sleep cycles.**  A disk sleeps after an access iff the (geometric)
  gap clears the effective threshold; tail sums of the geometric give the
  expected number of sleep cycles and the expected standby residence in
  closed form.  The final gap (hints exhausted) always sleeps.
* **Energy.**  Per-disk occupancies feed the same accounting as
  :mod:`repro.analysis.energymodel`; node base power and buffer-disk
  activity complete the cluster total.

The backend is validated against the discrete simulator over the four
Table-II sweeps by :func:`cross_validate`; docs/performance.md records
the measured accuracy envelope.  Outside that envelope (heavy-tailed
arrival processes, fault schedules, write-dominated mixes) use the
discrete engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import (
    ClusterSpec,
    default_cluster,
    EEVFSConfig,
    NODE_OVERHEAD_S,
    SERVER_OVERHEAD_S,
)
from repro.core.prediction import effective_threshold
from repro.disk.specs import DiskSpec
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload


def folded_poisson_pmf(mu: float, n_files: int) -> np.ndarray:
    """Access probability per file id for ``Poisson(mu) mod n_files``.

    Computed over ``mu +/- 12 sigma`` (beyond that the mass is below
    double precision) and folded into the catalog.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu!r}")
    if n_files <= 0:
        raise ValueError(f"n_files must be > 0, got {n_files!r}")
    half_width = 12.0 * math.sqrt(mu) + 12.0
    lo = max(0, int(mu - half_width))
    hi = int(mu + half_width) + 1
    ks = np.arange(lo, hi, dtype=np.float64)
    log_pmf = ks * math.log(mu) - mu - np.array(
        [math.lgamma(k + 1.0) for k in range(lo, hi)]
    )
    pmf = np.exp(log_pmf)
    folded = np.zeros(n_files, dtype=np.float64)
    np.add.at(folded, np.arange(lo, hi) % n_files, pmf)
    total = folded.sum()
    if total > 0:
        folded /= total
    return folded


@dataclass(frozen=True)
class DiskOccupancy:
    """Expected per-state residence of one disk over the run."""

    idle_s: float
    standby_s: float
    active_s: float
    transition_s: float
    #: Expected counted transitions (spin-downs + spin-ups).
    transitions: float
    energy_j: float


@dataclass(frozen=True)
class MeanFieldResult:
    """Closed-form counterpart of a discrete PF/NPF pair."""

    duration_s: float
    hit_rate: float
    pf_energy_j: float
    npf_energy_j: float
    transitions: float
    mean_response_s: float
    #: Aggregate data-disk state occupancy fractions under PF.
    occupancy: Dict[str, float] = field(default_factory=dict)

    @property
    def savings_fraction(self) -> float:
        if self.npf_energy_j <= 0:
            return 0.0
        return 1.0 - self.pf_energy_j / self.npf_energy_j


def _geometric_tail(q: float, k: int) -> float:
    """P(G >= k) for G ~ Geometric(q) on {1, 2, ...}."""
    if q >= 1.0:
        return 1.0 if k <= 1 else 0.0
    return (1.0 - q) ** max(k - 1, 0)


def _sleep_terms(
    q: float,
    n_gaps: float,
    ia_node_s: float,
    spec: DiskSpec,
    threshold_s: float,
) -> Tuple[float, float]:
    """Expected (sleep cycles, standby seconds) over *n_gaps* gaps.

    Gap length is ``IA_node x Geometric(q)``; the manager sleeps through
    gaps of at least ``threshold_s``.  Wake-ahead spins the disk up one
    spin-up time before the next access, so a slept gap of length ``g``
    yields ``g - t_down - t_up`` seconds of standby.
    """
    if n_gaps <= 0 or q <= 0 or ia_node_s <= 0:
        return 0.0, 0.0
    k_star = max(1, math.ceil(threshold_s / ia_node_s))
    p_sleep = _geometric_tail(q, k_star)
    if p_sleep <= 0:
        return 0.0, 0.0
    # E[G | G >= k*] = k* - 1 + 1/q for a geometric on {1, 2, ...}.
    mean_sleeping_gap_s = (k_star - 1 + 1.0 / q) * ia_node_s
    standby_per_gap = max(
        0.0, mean_sleeping_gap_s - spec.spindown_s - spec.spinup_s
    )
    cycles = n_gaps * p_sleep
    return cycles, cycles * standby_per_gap


def _disk_occupancy_pf(
    spec: DiskSpec,
    miss_mass: float,
    node_mass: float,
    n_requests: int,
    ia_eff_s: float,
    duration_s: float,
    size_bytes: float,
    idle_threshold_s: float,
    tail_s: float,
) -> DiskOccupancy:
    """Expected occupancy of one power-managed data disk."""
    threshold = effective_threshold(spec, idle_threshold_s)
    accesses = n_requests * miss_mass
    busy_s = accesses * spec.service_time(size_bytes)
    t_pair = spec.spindown_s + spec.spinup_s

    if node_mass <= 0 or accesses < 0.5:
        # Disk (or its whole node) sees no misses: it sleeps at hint
        # install and stays down for the entire measurement window.
        standby_s = max(0.0, duration_s - spec.spindown_s)
        transition_s = min(duration_s, spec.spindown_s)
        idle_s = max(0.0, duration_s - standby_s - transition_s)
        energy = (
            spec.power_idle_w * idle_s
            + spec.power_standby_w * standby_s
            + spec.spindown_energy_j
        )
        return DiskOccupancy(
            idle_s=idle_s,
            standby_s=standby_s,
            active_s=0.0,
            transition_s=transition_s,
            transitions=1.0,
            energy_j=energy,
        )

    ia_node_s = ia_eff_s / node_mass
    q = miss_mass / node_mass
    # Interior gaps between consecutive accesses, plus the initial gap
    # from hint install to the first access (same geometric law).
    cycles, standby_s = _sleep_terms(
        q, accesses, ia_node_s, spec, threshold
    )
    # Final gap: hints exhausted => predicted window is infinite => the
    # disk sleeps until the run ends (spin-down only, no wake).
    final_gap_s = max(0.0, (1.0 / q - 1.0) * ia_node_s + tail_s)
    final_standby_s = max(0.0, final_gap_s - spec.spindown_s)
    standby_s += final_standby_s

    transitions = 2.0 * cycles + 1.0
    transition_s = cycles * t_pair + spec.spindown_s
    standby_s = min(standby_s, max(0.0, duration_s - busy_s - transition_s))
    idle_s = max(0.0, duration_s - busy_s - standby_s - transition_s)
    energy = (
        spec.power_idle_w * idle_s
        + spec.power_standby_w * standby_s
        + spec.power_active_w * busy_s
        + cycles * (spec.spindown_energy_j + spec.spinup_energy_j)
        + spec.spindown_energy_j
    )
    return DiskOccupancy(
        idle_s=idle_s,
        standby_s=standby_s,
        active_s=busy_s,
        transition_s=transition_s,
        transitions=transitions,
        energy_j=energy,
    )


def _disk_occupancy_npf(
    spec: DiskSpec,
    mass: float,
    n_requests: int,
    duration_s: float,
    size_bytes: float,
) -> DiskOccupancy:
    """NPF data disk: idles between services, never sleeps."""
    busy_s = n_requests * mass * spec.service_time(size_bytes)
    busy_s = min(busy_s, duration_s)
    idle_s = duration_s - busy_s
    energy = spec.power_idle_w * idle_s + spec.power_active_w * busy_s
    return DiskOccupancy(
        idle_s=idle_s,
        standby_s=0.0,
        active_s=busy_s,
        transition_s=0.0,
        transitions=0.0,
        energy_j=energy,
    )


def _buffer_energy_j(
    spec: DiskSpec,
    hit_mass: float,
    n_requests: int,
    duration_s: float,
    size_bytes: float,
) -> float:
    """Buffer disk: never sleeps; active for its hit services."""
    busy_s = min(
        duration_s, n_requests * hit_mass * spec.service_time(size_bytes)
    )
    return spec.power_idle_w * (duration_s - busy_s) + spec.power_active_w * busy_s


def _per_disk_masses(
    ranks: np.ndarray,
    node_index: int,
    n_nodes: int,
    n_data_disks: int,
    prefetch_k: int,
) -> Tuple[float, List[float], List[float]]:
    """(hit mass, per-disk miss mass, per-disk total mass) for one node.

    Global rank ``r`` lands on node ``r mod N``; within the node, files
    are created in descending popularity and assigned to data disks
    round-robin, so the node's ``j``-th file sits on disk ``j mod D``.
    """
    node_ranks = ranks[node_index::n_nodes]
    locals_prefetched = np.arange(len(node_ranks)) * n_nodes + node_index < prefetch_k
    hit_mass = float(node_ranks[locals_prefetched].sum())
    miss = [0.0] * n_data_disks
    total = [0.0] * n_data_disks
    for j, mass in enumerate(node_ranks):
        d = j % n_data_disks
        total[d] += float(mass)
        if not locals_prefetched[j]:
            miss[d] += float(mass)
    return hit_mass, miss, total


#: Weight on queued work in the MVA recursion.  Product-form MVA (weight
#: 1.0) assumes exponential service and overestimates saturated response;
#: the data path's big holds are deterministic transfers, which queue
#: about half as much (M/D/1 wait is half the M/M/1 wait, weight 0.5).
#: The mix of deterministic transfers and variable disk/routing stages
#: lands in between -- 0.7 is calibrated against the discrete simulator
#: and holds all four paper sweeps within the documented error envelope.
_MVA_QUEUE_WEIGHT = 0.7


def _mva(stations: List[Tuple[float, float]], customers: int, delay_s: float) -> Tuple[float, float]:
    """Mean-value analysis of a closed network of *customers* requests.

    ``stations`` are (visit ratio, per-visit service) pairs; ``delay_s``
    is pure think/latency time (no queueing).  Returns the mean response
    time per request and the throughput at the given population.
    """
    queues = [0.0] * len(stations)
    resp = delay_s
    x = 0.0
    for n in range(1, max(customers, 1) + 1):
        per_station = [
            d * (1.0 + _MVA_QUEUE_WEIGHT * q) for (_, d), q in zip(stations, queues)
        ]
        resp = delay_s + sum(v * r for (v, _), r in zip(stations, per_station))
        x = n / resp
        queues = [x * v * r for (v, _), r in zip(stations, per_station)]
    return resp, x


def _build_stations(
    workload: SyntheticWorkload,
    cluster: ClusterSpec,
    node_masses: List[float],
    per_node_hit_mass: List[float],
    per_node_disk_miss: List[List[float]],
    spinup_wait_s: float = 0.0,
) -> Tuple[List[Tuple[float, float]], float]:
    """(stations, pure-delay) for the request-path queueing network.

    Stations: server CPU, and per node its NIC, buffer disk, and each
    data disk.  The client RX hold is *not* a separate station: the
    fabric grants the receiver channel inside the sender's TX occupancy
    window (the two holds run concurrently), so the reply transfer
    serializes once at ``size / min(node_tx, client_rx)`` on the node
    NIC.  ``spinup_wait_s`` adds the expected on-demand wake wait to
    every data-disk visit (saturated regimes where the wake-ahead pace
    estimate drifts).
    """
    size = float(workload.data_size_bytes)
    client_bw = cluster.client_nic_bps
    stations: List[Tuple[float, float]] = [
        (1.0, SERVER_OVERHEAD_S),
    ]
    for i, node in enumerate(cluster.storage_nodes):
        stations.append((node_masses[i], size / min(node.nic_bps, client_bw)))
        if per_node_hit_mass[i] > 0:
            stations.append(
                (per_node_hit_mass[i], node.buffer_spec.service_time(size))
            )
        for miss_mass in per_node_disk_miss[i]:
            if miss_mass > 0:
                stations.append(
                    (miss_mass, node.disk_spec.service_time(size) + spinup_wait_s)
                )
    delay = NODE_OVERHEAD_S + 2.0 * cluster.fabric_latency_s
    return stations, delay


def _duration_from_mva(
    workload: SyntheticWorkload,
    cluster: ClusterSpec,
    stations: List[Tuple[float, float]],
    delay_s: float,
) -> Tuple[float, float, bool]:
    """(duration_s, tail_s, saturated) for the measurement window.

    Below saturation the window is the trace span plus the drain tail
    (the final request's response).  The paced replayer caps outstanding
    requests at ``client_max_outstanding``; once the per-request response
    exceeds ``window x inter-arrival`` the client is throttled and the
    run becomes a closed system of ``window`` customers, so the makespan
    is ``n x response / window`` -- exact MVA supplies the response.
    """
    n = workload.n_requests
    window = cluster.client_max_outstanding
    resp_closed, throughput = _mva(stations, window, delay_s)
    tail, _ = _mva(stations, 1, delay_s)
    span = max(0, n - 1) * workload.inter_arrival_s
    closed_makespan = n / throughput if throughput > 0 else 0.0
    open_makespan = span + tail
    if closed_makespan > open_makespan:
        return closed_makespan, resp_closed, True
    return open_makespan, tail, False


def analyze(
    workload: SyntheticWorkload,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
) -> MeanFieldResult:
    """Closed-form PF/NPF prediction for one workload point."""
    config = config or EEVFSConfig()
    cluster = cluster or default_cluster()
    n_nodes = cluster.n_nodes
    n = workload.n_requests
    size = float(workload.data_size_bytes)

    pmf = folded_poisson_pmf(workload.mu, workload.n_files)
    ranks = np.sort(pmf)[::-1]
    k = min(config.prefetch_files, workload.n_files) if config.prefetch_enabled else 0
    hit_rate = float(ranks[:k].sum()) if k else 0.0

    node_masses = [
        float(ranks[i::n_nodes].sum()) for i in range(n_nodes)
    ]
    per_node_hit: List[float] = []
    per_node_disk_miss: List[List[float]] = []
    per_node_disk_total: List[List[float]] = []
    for i, node in enumerate(cluster.storage_nodes):
        hit_mass, miss_masses, total_masses = _per_disk_masses(
            ranks, i, n_nodes, node.n_data_disks, k
        )
        per_node_hit.append(hit_mass)
        per_node_disk_miss.append(miss_masses)
        per_node_disk_total.append(total_masses)

    npf_stations, delay = _build_stations(
        workload, cluster, node_masses, [0.0] * n_nodes, per_node_disk_total
    )
    npf_duration, _, _ = _duration_from_mva(workload, cluster, npf_stations, delay)

    pf_stations, delay = _build_stations(
        workload, cluster, node_masses, per_node_hit, per_node_disk_miss
    )
    pf_duration, pf_tail, saturated = _duration_from_mva(
        workload, cluster, pf_stations, delay
    )
    if saturated and config.power_management_enabled and k > 0:
        # Saturated PF runs can pay on-demand spin-up waits.  Whether they
        # do depends on *why* the disk sleeps.  When every inter-access gap
        # clears the idle threshold (``k_star == 1``) the disk cycles on a
        # regular schedule, the hint-driven gap estimate is accurate, and
        # wake-ahead hides the spin-up -- no penalty.  When only stochastic
        # long gaps sleep (``k_star > 1``) the next arrival is, by
        # construction, earlier than predicted and the wake is on-demand:
        # fold the expected wait back into the disk demand (one fixed-point
        # pass converges -- the correction is small vs. the makespan).
        ia_sat = pf_duration / max(n, 1)
        waits: List[float] = []
        for i, node in enumerate(cluster.storage_nodes):
            if node_masses[i] <= 0:
                continue
            ia_node = ia_sat / node_masses[i]
            threshold = effective_threshold(node.disk_spec, config.idle_threshold_s)
            k_star = max(1, math.ceil(threshold / ia_node))
            for miss_mass in per_node_disk_miss[i]:
                if miss_mass > 0:
                    q = miss_mass / node_masses[i]
                    if k_star > 1:
                        waits.append(
                            _geometric_tail(q, k_star) * node.disk_spec.spinup_s
                        )
                    else:
                        waits.append(0.0)
        if waits:
            spinup_wait = sum(waits) / len(waits)
            pf_stations, delay = _build_stations(
                workload,
                cluster,
                node_masses,
                per_node_hit,
                per_node_disk_miss,
                spinup_wait_s=spinup_wait,
            )
            pf_duration, pf_tail, saturated = _duration_from_mva(
                workload, cluster, pf_stations, delay
            )
    ia_eff = max(workload.inter_arrival_s, (pf_duration - pf_tail) / max(n, 1))

    pf_energy = 0.0
    npf_energy = 0.0
    transitions = 0.0
    agg = {"idle_s": 0.0, "standby_s": 0.0, "active_s": 0.0, "transition_s": 0.0}
    for i, node in enumerate(cluster.storage_nodes):
        hit_mass = per_node_hit[i]
        miss_masses = per_node_disk_miss[i]
        total_masses = per_node_disk_total[i]
        pf_energy += node.base_power_w * pf_duration
        npf_energy += node.base_power_w * npf_duration
        pf_energy += _buffer_energy_j(
            node.buffer_spec, hit_mass, n, pf_duration, size
        )
        npf_energy += node.buffer_spec.power_idle_w * npf_duration
        for d in range(node.n_data_disks):
            if config.power_management_enabled and k > 0:
                occ = _disk_occupancy_pf(
                    node.disk_spec,
                    miss_masses[d],
                    node_masses[i],
                    n,
                    ia_eff,
                    pf_duration,
                    size,
                    config.idle_threshold_s,
                    pf_tail,
                )
            else:
                occ = _disk_occupancy_npf(
                    node.disk_spec, miss_masses[d], n, pf_duration, size
                )
            pf_energy += occ.energy_j
            transitions += occ.transitions
            for key in agg:
                agg[key] += getattr(occ, key)
            npf_energy += _disk_occupancy_npf(
                node.disk_spec, total_masses[d], n, npf_duration, size
            ).energy_j

    total_disk_s = sum(agg.values())
    occupancy = (
        {key[:-2]: value / total_disk_s for key, value in agg.items()}
        if total_disk_s > 0
        else {}
    )
    return MeanFieldResult(
        duration_s=pf_duration,
        hit_rate=hit_rate,
        pf_energy_j=pf_energy,
        npf_energy_j=npf_energy,
        transitions=transitions,
        mean_response_s=pf_tail,
        occupancy=occupancy,
    )


# -- cross-validation harness ------------------------------------------------------


@dataclass(frozen=True)
class ValidationPoint:
    """Mean-field vs discrete comparison at one sweep point."""

    sweep: str
    value: object
    pf_energy_error: float
    npf_energy_error: float
    hit_rate_error: float
    discrete_wall_s: float
    meanfield_wall_s: float


@dataclass(frozen=True)
class ValidationReport:
    points: List[ValidationPoint]

    @property
    def max_energy_error(self) -> float:
        return max(
            (max(abs(p.pf_energy_error), abs(p.npf_energy_error)) for p in self.points),
            default=0.0,
        )

    @property
    def speedup(self) -> float:
        discrete = sum(p.discrete_wall_s for p in self.points)
        analytic = sum(p.meanfield_wall_s for p in self.points)
        return discrete / analytic if analytic > 0 else float("inf")


def cross_validate(
    sweeps: Optional[Dict[str, Tuple[object, ...]]] = None,
    n_requests: int = 1000,
    config: Optional[EEVFSConfig] = None,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
    trace_seed: int = 1,
) -> ValidationReport:
    """Run discrete PF/NPF pairs and the analytic model side by side.

    Defaults to the four Table-II sweeps.  Returns per-point relative
    energy errors and wall-clock costs; `report.max_energy_error` and
    `report.speedup` are the acceptance-gate numbers.
    """
    from repro.experiments.study import run_pair
    from repro.experiments.sweeps import SWEEPS, _config_for, _workload_for

    if sweeps is None:
        sweeps = {name: tuple(values) for name, (_, values) in SWEEPS.items()}
    base_config = config or EEVFSConfig()
    cluster = cluster or default_cluster()

    points: List[ValidationPoint] = []
    for sweep, values in sweeps.items():
        for value in values:
            workload = _workload_for(sweep, value, n_requests)
            point_config = _config_for(sweep, value, base_config)
            # Wall-clock timing is the deliverable here (speedup gate),
            # not simulation state.
            t0 = time.perf_counter()  # simlint: ignore[DET002]
            trace = generate_synthetic_trace(
                workload, rng=np.random.default_rng(trace_seed)
            )
            pair = run_pair(trace, config=point_config, cluster=cluster, seed=seed)
            discrete_wall = time.perf_counter() - t0  # simlint: ignore[DET002]
            t1 = time.perf_counter()  # simlint: ignore[DET002]
            predicted = analyze(workload, config=point_config, cluster=cluster)
            meanfield_wall = time.perf_counter() - t1  # simlint: ignore[DET002]
            pf, npf = pair.pf, pair.npf
            discrete_hits = pf.buffer_hits / max(
                pf.buffer_hits + pf.data_disk_hits, 1
            )
            points.append(
                ValidationPoint(
                    sweep=sweep,
                    value=value,
                    pf_energy_error=predicted.pf_energy_j / pf.energy_j - 1.0,
                    npf_energy_error=predicted.npf_energy_j / npf.energy_j - 1.0,
                    hit_rate_error=predicted.hit_rate - discrete_hits,
                    discrete_wall_s=discrete_wall,
                    meanfield_wall_s=meanfield_wall,
                )
            )
    return ValidationReport(points=points)
