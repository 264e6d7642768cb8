"""Drift-gated re-prefetching: the one periodic re-prefetch loop.

The paper prefetches once, at setup.  PRE-BUD's "dynamically fetch the
most popular data into buffer disks" is this loop.  Every
``online_replan_epoch_s`` of simulated time after the trace epoch the
replanner

1. ranks its popularity source's current view over the catalog
   (traced as ``online.estimate``),
2. takes the top-K,
3. measures drift -- the fraction of that top-K not covered by the
   plan the buffers currently hold -- and,
4. when drift reaches ``online_drift_threshold`` (or the buffers were
   never populated), pushes a replacement plan through the existing
   prefetch path: ``PrefetchCommand(replace=True)`` per node, which
   copies newly wanted files and unmarks no-longer-wanted ones
   (traced as ``online.replan``).

Two arms run it, and they differ only in their popularity source and
their K (:class:`~repro.core.filesystem.EEVFSCluster` picks both):

* **online mode** (``online_mode``): a streaming estimator from
  :mod:`repro.online.estimators` and the controller's adaptive K.  The
  buffers start cold.
* **oracle mode with** ``popularity_window_s``: a
  :class:`~repro.core.popularity.WindowEstimator` over the last
  ``popularity_window_s`` seconds of the live request log, and the fixed
  ``prefetch_files``.  The buffers start with the setup plan.

A drift gate of 0 replans at every epoch once a request has been seen:
blind periodic re-prefetching.  Above 0 the gate is what makes the loop
cheaper: a stable workload converges after one or two epochs and then
stops moving data entirely.

With ``online_replan_cost_gate`` enabled, a drifted plan must also pay
for itself: the loop estimates the migration energy of copying the newly
wanted files into the buffer tier and an (optimistic) projection of the
energy those copies can save over the next epoch, and skips the replan
when the cost exceeds the projection.  This is what tames the
saturation regime -- at 50 MB files every replan moves gigabytes while a
throttled client produces only a handful of hits per epoch to pay for
them.  The savings projection is deliberately optimistic (it assumes
every next-epoch access lands in the top-K), so the gate only vetoes
replans that cannot break even even under the rosiest forecast.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Set, TYPE_CHECKING, Union

from repro.core.config import EEVFSConfig
from repro.core.popularity import PopularitySource
from repro.core.prefetch import plan_prefetch
from repro.core.protocol import PrefetchCommand
from repro.online.controller import OnlineController, OnlineStats
from repro.sim.engine import Simulator
from repro.sim.events import URGENT

if TYPE_CHECKING:
    from repro.core.node import StorageNode
    from repro.core.server import StorageServer


class ReplanLoop:
    """Epoch-based top-K diffing against the current buffer plan."""

    def __init__(
        self,
        sim: Simulator,
        server: "StorageServer",
        source: PopularitySource,
        nodes: "List[StorageNode]",
        k: Union[int, OnlineController],
        config: EEVFSConfig,
    ) -> None:
        self.sim = sim
        self.server = server
        #: Fed by the server from every routed request; ranked each epoch.
        self.source = source
        self.nodes = nodes
        #: Prefetch depth: a fixed count, or the online controller whose
        #: adaptive K is read afresh at every epoch.
        self.k = k
        self.config = config
        #: Span tag naming the source.
        self._source_name = config.online_estimator if config.online_mode else "window"
        #: Files the buffer disks were last told to hold (the setup plan
        #: until the first replan; empty in online mode, which starts
        #: cold).
        self._planned: Set[int] = set()
        #: Source count at the previous epoch boundary, for the
        #: per-epoch access-rate estimate the cost gate projects from.
        self._last_recorded = 0
        self.epochs = 0
        self.replans = 0
        self.skipped = 0
        #: Subset of the skips where drift had fired but the cost gate
        #: vetoed the migration as uneconomic.
        self.cost_vetoed = 0
        self.max_drift = 0.0

    def start(self) -> None:
        """Arm the loop (called at the trace epoch)."""
        plan = self.server.prefetch_plan
        if plan is not None:
            self._planned = {fid for files in plan.per_node.values() for fid in files}
        self.sim.call_soon(
            lambda _value: self.sim.call_later(self.config.online_replan_epoch_s, self._epoch),
            priority=URGENT,
        )

    def snapshot(self, stats: OnlineStats) -> OnlineStats:
        """*stats* (the controller's) with this loop's counters filled in."""
        return replace(
            stats,
            replan_epochs=self.epochs,
            replans_triggered=self.replans,
            replans_skipped=self.skipped,
            replans_cost_vetoed=self.cost_vetoed,
            max_drift=self.max_drift,
            samples_recorded=self.source.recorded,
        )

    def drift_fraction(self, top: list[int]) -> float:
        """Share of the wanted top-K the current plan does not hold."""
        if not top:
            return 0.0
        missing = sum(1 for fid in top if fid not in self._planned)
        return missing / len(top)

    def migration_cost_j(self, new_files: list[int]) -> float:
        """Estimated energy to copy *new_files* into the buffer tier.

        Each copy is one active data-disk read plus one active
        buffer-disk write at the file's registered size; node hardware
        is taken from the first storage node (the fleet is near-uniform
        for this purpose, and the gate only needs the right order of
        magnitude).
        """
        if not self.nodes or not new_files:
            return 0.0
        data = self.nodes[0].data_disks[0].spec
        buffer = self.nodes[0].buffer_disk.spec
        total = 0.0
        for fid in new_files:
            try:
                size = self.server.metadata.lookup(fid).size_bytes
            except KeyError:
                continue
            read_s = data.positioning_s + size / data.bandwidth_bps
            write_s = buffer.positioning_s + size / buffer.bandwidth_bps
            total += read_s * data.power_active_w + write_s * buffer.power_active_w
        return total

    def projected_savings_j(
        self, new_files: list[int], drift: float, epoch_accesses: int
    ) -> float:
        """Optimistic next-epoch savings from covering *new_files*.

        Assumes the recent access rate continues, every access lands in
        the top-K, and the drifted share of them would each have cost an
        active data-disk read that the new plan converts to a buffer
        hit.  Optimism is the point: a replan vetoed under this forecast
        cannot break even under any realistic one.
        """
        if not self.nodes or not new_files or epoch_accesses <= 0 or drift <= 0:
            return 0.0
        data = self.nodes[0].data_disks[0].spec
        sizes = []
        for fid in new_files:
            try:
                sizes.append(self.server.metadata.lookup(fid).size_bytes)
            except KeyError:
                continue
        if not sizes:
            return 0.0
        mean_size = sum(sizes) / len(sizes)
        read_s = data.positioning_s + mean_size / data.bandwidth_bps
        return epoch_accesses * drift * read_s * data.power_active_w

    def _epoch(self, _value: Any) -> None:
        self._replan()
        self.sim.call_later(self.config.online_replan_epoch_s, self._epoch)

    def _replan(self) -> None:
        """One epoch boundary: re-rank, and replace the buffers' contents
        when the top-K drifted far enough to pay for the copies."""
        source = self.source
        self.epochs += 1
        if source.recorded == 0:
            self.skipped += 1
            return  # nothing observed yet: keep the buffers as they are

        tracer = self.sim.tracer
        estimate_span = (
            tracer.begin("online.estimate", "online", estimator=self._source_name)
            if tracer is not None
            else None
        )
        ranking = source.ranking(self.server.catalog)
        if estimate_span is not None and tracer is not None:
            tracer.end(estimate_span, observed=source.recorded)

        k = self.k if isinstance(self.k, int) else self.k.k
        top = ranking[:k]
        drift = self.drift_fraction(top)
        self.max_drift = max(self.max_drift, drift)
        epoch_accesses = source.recorded - self._last_recorded
        self._last_recorded = source.recorded
        first_plan = not self._planned and bool(top)
        if not first_plan and drift < self.config.online_drift_threshold:
            self.skipped += 1
            return

        if self.config.online_replan_cost_gate and not first_plan:
            new_files = [fid for fid in top if fid not in self._planned]
            cost = self.migration_cost_j(new_files)
            savings = self.projected_savings_j(new_files, drift, epoch_accesses)
            if cost > savings:
                self.skipped += 1
                self.cost_vetoed += 1
                if tracer is not None:
                    tracer.instant(
                        "online.replan_vetoed",
                        "online",
                        drift=drift,
                        cost_j=cost,
                        projected_savings_j=savings,
                    )
                return

        plan = plan_prefetch(ranking, k, self.server.placement)
        for node in self.server.node_names:
            self.server.fabric.send_nowait(
                self.server.name,
                node,
                PrefetchCommand(
                    file_ids=plan.files_for(node), replace=True, ack=False
                ),
            )
        self._planned = set(top)
        self.replans += 1
        if tracer is not None:
            tracer.instant(
                "online.replan", "online", k=k, drift=drift
            )
