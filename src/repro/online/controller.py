"""The adaptive online controller (one control timer per cluster).

Without the oracle there is nothing to tell the system the right
prefetch depth or idle threshold, so online mode closes the loop on
its own measurements instead.  Every :data:`CONTROL_INTERVAL_S` of
simulated time the controller:

* computes the buffer-hit ratio over the *window just ended* (deltas of
  the nodes' hit counters, not lifetime totals) and steps prefetch-K by
  :data:`K_STEP` toward the :data:`TARGET_HIT_RATIO` set-point -- only
  when the ratio falls outside the ``+/- HYSTERESIS`` dead-band, so the
  controller does not chatter around the target;
* computes the per-data-disk spin-up rate over the window and steps
  the disks' built-in idle timers: spinning up more often than
  :data:`SPINUP_RATE_MAX` means the timer is too eager (raise it), while
  a quiet window with the hit target met means it can afford to sleep
  sooner (lower it).  Applied thresholds are clamped to
  ``[IDLE_MIN_S, IDLE_MAX_S]`` and lower-bounded by each drive's
  break-even time (sleeping shorter would cost energy).

The adjusted K is consumed by :class:`~repro.online.replan.ReplanLoop`
at its next epoch; thresholds act on the drives directly via
:meth:`~repro.disk.drive.SimDisk.set_idle_threshold`.  Every tick is
recorded as a plain-data :class:`ControlSample` (the hit-ratio/K time
series in reports) and traced as an ``online.control`` instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, TYPE_CHECKING

from repro.core.config import EEVFSConfig
from repro.core.prediction import effective_threshold
from repro.sim.engine import Simulator
from repro.sim.events import URGENT

if TYPE_CHECKING:
    from repro.core.node import StorageNode

#: Controller cadence: seconds of simulated time between ticks.
CONTROL_INTERVAL_S = 30.0
#: Windowed buffer-hit ratio the controller steers K toward, and the
#: half-width of the dead-band around it.
TARGET_HIT_RATIO = 0.6
HYSTERESIS = 0.05
#: K moves by this many files per tick, inside ``[K_MIN, K_MAX]``.
K_STEP = 10
K_MIN = 10
K_MAX = 200
#: Spin-ups per data disk per minute above which the idle timers are
#: too eager.
SPINUP_RATE_MAX = 2.0
#: The idle threshold moves by this many seconds per tick, inside
#: ``[IDLE_MIN_S, IDLE_MAX_S]``.
IDLE_STEP_S = 1.0
IDLE_MIN_S = 1.0
IDLE_MAX_S = 30.0


@dataclass(frozen=True)
class ControlSample:
    """One controller tick: what it saw and what it set."""

    time_s: float
    hit_ratio: Optional[float]
    spinup_rate: float
    k: int
    idle_threshold_s: float


@dataclass
class OnlineStats:
    """Plain-data summary of an online run's control/replan activity.

    Rides :class:`~repro.core.filesystem.RunResult` (picklable across
    the repro.parallel process boundary, like every other stats block).
    """

    estimator: str
    k_initial: int
    k_final: int
    idle_initial_s: float
    idle_final_s: float
    control_ticks: int = 0
    k_raises: int = 0
    k_cuts: int = 0
    idle_raises: int = 0
    idle_cuts: int = 0
    replan_epochs: int = 0
    replans_triggered: int = 0
    replans_skipped: int = 0
    #: Subset of the skips where drift had fired but the cost gate
    #: (``online_replan_cost_gate``) vetoed the migration as uneconomic.
    replans_cost_vetoed: int = 0
    max_drift: float = 0.0
    #: Accesses the streaming estimator ingested (set at run end).
    samples_recorded: int = 0
    history: List[ControlSample] = field(default_factory=list)


class OnlineController:
    """Feedback controller for prefetch-K and the disk idle threshold."""

    def __init__(
        self,
        sim: Simulator,
        nodes: "List[StorageNode]",
        config: EEVFSConfig,
    ) -> None:
        self.sim = sim
        self.nodes = nodes
        self.k = min(max(config.prefetch_files, K_MIN), K_MAX)
        self.idle_threshold_s = min(
            max(config.idle_threshold_s, IDLE_MIN_S), IDLE_MAX_S
        )
        self.stats = OnlineStats(
            estimator=config.online_estimator,
            k_initial=self.k,
            k_final=self.k,
            idle_initial_s=self.idle_threshold_s,
            idle_final_s=self.idle_threshold_s,
        )
        self._last_buffer_hits = 0
        self._last_data_hits = 0
        self._last_spinups = 0

    # -- observation helpers -------------------------------------------------------

    def _data_disks(self) -> List[Any]:
        return [disk for node in self.nodes for disk in node.data_disks]

    def _counters(self) -> tuple[int, int, int]:
        buffer_hits = sum(node.buffer_hits for node in self.nodes)
        data_hits = sum(node.data_disk_hits for node in self.nodes)
        spinups = sum(disk.meter.spinup_count for disk in self._data_disks())
        return buffer_hits, data_hits, spinups

    # -- the control loop ----------------------------------------------------------

    def start(self) -> None:
        """Arm the loop (called at the trace epoch: ticks are workload-relative)."""
        self._last_buffer_hits, self._last_data_hits, self._last_spinups = (
            self._counters()
        )
        self.sim.call_soon(
            lambda _value: self.sim.call_later(CONTROL_INTERVAL_S, self._tick),
            priority=URGENT,
        )

    def _tick(self, _value: Any) -> None:
        """One control tick: measure the last window, adjust, re-arm."""
        interval = CONTROL_INTERVAL_S
        buffer_hits, data_hits, spinups = self._counters()
        window_hits = buffer_hits - self._last_buffer_hits
        window_served = window_hits + (data_hits - self._last_data_hits)
        window_spinups = spinups - self._last_spinups
        self._last_buffer_hits = buffer_hits
        self._last_data_hits = data_hits
        self._last_spinups = spinups

        hit_ratio = window_hits / window_served if window_served else None
        n_disks = max(1, len(self._data_disks()))
        spinup_rate = window_spinups / n_disks / (interval / 60.0)

        self._adjust_k(hit_ratio)
        self._adjust_idle_threshold(hit_ratio, spinup_rate)

        self.stats.control_ticks += 1
        self.stats.k_final = self.k
        self.stats.idle_final_s = self.idle_threshold_s
        self.stats.history.append(
            ControlSample(
                time_s=self.sim.now,
                hit_ratio=hit_ratio,
                spinup_rate=spinup_rate,
                k=self.k,
                idle_threshold_s=self.idle_threshold_s,
            )
        )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "online.control",
                "online",
                k=self.k,
                idle_threshold_s=self.idle_threshold_s,
                hit_ratio=hit_ratio,
                spinup_rate=spinup_rate,
            )
        self.sim.call_later(interval, self._tick)

    def _adjust_k(self, hit_ratio: Optional[float]) -> None:
        """Step K toward the hit-ratio set-point, inside the dead-band."""
        if hit_ratio is None:
            return  # idle window: no evidence either way
        if hit_ratio < TARGET_HIT_RATIO - HYSTERESIS:
            new_k = min(K_MAX, self.k + K_STEP)
            if new_k != self.k:
                self.k = new_k
                self.stats.k_raises += 1
        elif hit_ratio > TARGET_HIT_RATIO + HYSTERESIS:
            new_k = max(K_MIN, self.k - K_STEP)
            if new_k != self.k:
                self.k = new_k
                self.stats.k_cuts += 1

    def _adjust_idle_threshold(
        self, hit_ratio: Optional[float], spinup_rate: float
    ) -> None:
        """Step the idle timers from the observed spin-up churn."""
        if spinup_rate > SPINUP_RATE_MAX:
            target = min(IDLE_MAX_S, self.idle_threshold_s + IDLE_STEP_S)
            if target != self.idle_threshold_s:
                self.idle_threshold_s = target
                self.stats.idle_raises += 1
                self._apply_idle_threshold()
        elif (
            spinup_rate == 0.0
            and hit_ratio is not None
            and hit_ratio >= TARGET_HIT_RATIO
        ):
            target = max(IDLE_MIN_S, self.idle_threshold_s - IDLE_STEP_S)
            if target != self.idle_threshold_s:
                self.idle_threshold_s = target
                self.stats.idle_cuts += 1
                self._apply_idle_threshold()

    def _apply_idle_threshold(self) -> None:
        for node in self.nodes:
            for disk in node.data_disks:
                if disk.auto_sleep_after is None:
                    continue  # not power-managed in this mode
                disk.set_idle_threshold(
                    effective_threshold(disk.spec, self.idle_threshold_s)
                )

    def snapshot(self) -> OnlineStats:
        """The run's control history (plain data, picklable)."""
        return self.stats
