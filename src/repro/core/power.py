"""The storage-node power manager (§III-C, §IV-C).

Each storage node owns one :class:`PowerManager` governing its *data*
disks (buffer disks never sleep: "placing the buffer disk into the
standby state is not feasible", §III-C).

Operating modes, following §IV-C:

* **With application hints** -- the node knows each data disk's future
  access pattern (buffer-served accesses removed).  Whenever a request
  enters the node, and whenever a disk drains, the manager checks every
  idle disk: if the predicted window to its next access exceeds the
  effective threshold, the disk sleeps immediately ("we sleep a disk as a
  particular request enters the storage client node", §VI-A) and a
  wake-up point is marked ("the storage node marks points in time when
  the data disks should be transitioned", §III-C).
* **Without hints** -- each disk's built-in idle timer (the disk idle
  threshold) decides; that timer stays armed in hinted mode too, as the
  §IV-C fallback.

Two window predictors are provided:

* ``"sequence"`` (default) -- the look-ahead window is measured in
  *requests*: ``(position of the disk's next access in the node's request
  stream - requests seen so far) * observed mean inter-arrival``.  The
  inter-arrival estimate is an EWMA over actual arrivals, so the
  predictor tracks schedule drift when the cluster saturates (the 50 MB
  regime) instead of blindly trusting trace timestamps.  This follows the
  paper's framing: "Our strategy attempts to analyze requests look-ahead
  window" (§II).
* ``"time"`` -- trust the hinted absolute timestamps (accurate only while
  the replay keeps pace; kept for the ablation study).
"""

from __future__ import annotations

from collections import deque
import math
from typing import Collection, Deque, List, Optional, Sequence, Tuple

from repro.core.prediction import effective_threshold
from repro.disk.drive import StorageBackend
from repro.disk.states import DiskState
from repro.sim.engine import hold_slot, Simulator
from repro.sim.events import URGENT

#: EWMA weight for observed node inter-arrival gaps.
GAP_EWMA_ALPHA = 0.2


class PowerManager:
    """Predictive sleep/wake control over a node's data disks."""

    def __init__(
        self,
        sim: Simulator,
        disks: Sequence[StorageBackend],
        idle_threshold_s: float,
        wake_ahead: bool = True,
        predictor: str = "sequence",
    ) -> None:
        if idle_threshold_s < 0:
            raise ValueError(f"idle_threshold_s must be >= 0, got {idle_threshold_s!r}")
        if predictor not in ("sequence", "time"):
            raise ValueError(f"unknown predictor: {predictor!r}")
        self.sim = sim
        self.disks = list(disks)
        self.idle_threshold_s = float(idle_threshold_s)
        self.wake_ahead = wake_ahead
        self.predictor = predictor
        self._enabled = False
        #: Per-disk future access times (absolute) and node-sequence indices.
        self._future_times: List[Deque[float]] = [deque() for _ in self.disks]
        self._future_seqs: List[Deque[int]] = [deque() for _ in self.disks]
        self._thresholds = [
            effective_threshold(d.spec, idle_threshold_s) for d in self.disks
        ]
        #: Requests seen at this node since hints were installed.
        self.arrivals_seen = 0
        self._last_arrival_s: Optional[float] = None
        self._gap_ewma_s: Optional[float] = None
        #: Sequence index at which each sleeping disk should wake (None =
        #: no wake-ahead pending for that disk).
        self._wake_seq: List[Optional[int]] = [None for _ in self.disks]
        #: Diagnostics.
        self.sleeps_initiated = 0
        self.wakeaheads_scheduled = 0

    # -- setup ---------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_hints(
        self,
        per_disk_times: Sequence[Sequence[float]],
        per_disk_seqs: Optional[Sequence[Sequence[int]]] = None,
        hint_gap_s: Optional[float] = None,
        reset_clock: bool = True,
    ) -> None:
        """Install the predicted access pattern and arm the manager.

        ``per_disk_times`` are absolute access instants per data disk;
        ``per_disk_seqs`` the matching positions in the node's overall
        request stream (required by the sequence predictor); ``hint_gap_s``
        seeds the inter-arrival estimate until live arrivals update it.

        Immediately evaluates every disk -- with a fully prefetched
        workload this is what "sleeps the disks at the beginning of the
        trace execution" (§VI-A).
        """
        if len(per_disk_times) != len(self.disks):
            raise ValueError(
                f"need hints for {len(self.disks)} disks, got {len(per_disk_times)}"
            )
        if per_disk_seqs is not None and len(per_disk_seqs) != len(self.disks):
            raise ValueError("per_disk_seqs length mismatch")
        for i, times in enumerate(per_disk_times):
            ordered = list(times)
            if sorted(ordered) != ordered:
                raise ValueError(f"disk {i}: hint times must be sorted")
            self._future_times[i] = deque(ordered)
            if per_disk_seqs is not None:
                seqs = list(per_disk_seqs[i])
                if len(seqs) != len(ordered):
                    raise ValueError(f"disk {i}: seqs/times length mismatch")
                if sorted(seqs) != seqs:
                    raise ValueError(f"disk {i}: hint seqs must be sorted")
                self._future_seqs[i] = deque(seqs)
            else:
                self._future_seqs[i] = deque()
        if self.predictor == "sequence" and per_disk_seqs is None:
            if any(self._future_times[i] for i in range(len(self.disks))):
                raise ValueError("sequence predictor requires per_disk_seqs")
        if hint_gap_s is not None and hint_gap_s >= 0:
            self._gap_ewma_s = float(hint_gap_s)
        if reset_clock:
            # Fresh installation at trace start; a re-install mid-run
            # (dynamic re-prefetch) keeps the stream clock so sequence
            # numbers stay aligned with arrivals already counted.
            self.arrivals_seen = 0
            self._last_arrival_s = None
        self._enabled = True
        self.evaluate_all()

    def disable(self) -> None:
        """Stop making decisions (NPF mode)."""
        self._enabled = False

    # -- runtime hooks (called by the storage node) ------------------------------------

    def note_node_arrival(self) -> None:
        """Any request entered the node: advance the stream clock.

        Updates the sequence counter and the observed inter-arrival EWMA,
        then fires any sequence-scheduled wake-ups that are now due.
        """
        now = self.sim.now
        if self._last_arrival_s is not None:
            gap = now - self._last_arrival_s
            if self._gap_ewma_s is None:
                self._gap_ewma_s = gap
            else:
                self._gap_ewma_s += GAP_EWMA_ALPHA * (gap - self._gap_ewma_s)
        self._last_arrival_s = now
        self.arrivals_seen += 1
        if not self._enabled:
            return
        for i, wake_at in enumerate(self._wake_seq):
            # -1 is the time-based-wake sentinel, handled by its own timer.
            if wake_at is not None and wake_at >= 0 and self.arrivals_seen >= wake_at:
                self._wake_seq[i] = None
                self.disks[i].wake()

    def note_arrival(self, disk_index: int) -> None:
        """A data-disk request arrived: consume its predicted entry.

        Requests reach a disk in trace order (FIFO through server and
        node), so popping the head keeps prediction and reality aligned
        even when queueing delays individual requests.
        """
        if self._future_times[disk_index]:
            self._future_times[disk_index].popleft()
        if self._future_seqs[disk_index]:
            self._future_seqs[disk_index].popleft()
        self._wake_seq[disk_index] = None

    def evaluate_all(self, exclude: Collection[int] = ()) -> None:
        """Check every disk for a sleep opportunity (on request entry).

        *exclude* (disk indices) skips the disks the entering request
        targets -- their work has not been submitted yet, so they must not
        be judged idle.
        """
        if not self._enabled:
            return
        for i in range(len(self.disks)):
            if i not in exclude:
                self.evaluate(i)

    def evaluate(self, disk_index: int) -> bool:
        """Sleep one disk if its predicted idle window clears the bar.

        Returns True if a spin-down was initiated.
        """
        if not self._enabled:
            return False
        disk = self.disks[disk_index]
        if disk.meter.state is not DiskState.IDLE or disk.inflight > 0:
            return False
        window = self.predicted_window_s(disk_index)
        if window < self._thresholds[disk_index]:
            return False
        if not disk.request_sleep():
            return False
        self.sleeps_initiated += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "power.sleep", disk.name, window_s=window, predictor=self.predictor
            )
        if self.wake_ahead:
            self._mark_wake_point(disk_index)
        return True

    # -- prediction --------------------------------------------------------------------

    def predicted_window_s(self, disk_index: int) -> float:
        """Estimated time until the disk's next access (inf = never)."""
        if self.predictor == "time":
            times = self._future_times[disk_index]
            if not times:
                return math.inf
            return max(0.0, times[0] - self.sim.now)
        seqs = self._future_seqs[disk_index]
        if not seqs:
            return math.inf
        gap = self._gap_ewma_s
        if gap is None or gap <= 0:
            return 0.0  # no pace information yet: stay conservative
        remaining = seqs[0] - self.arrivals_seen
        return max(0.0, remaining * gap)

    def next_access_time(self, disk_index: int) -> Optional[float]:
        """Next hinted access instant for a disk (None = never again)."""
        times = self._future_times[disk_index]
        return times[0] if times else None

    def _mark_wake_point(self, disk_index: int) -> None:
        """Mark the §III-C wake-up transition point for a sleeping disk."""
        disk = self.disks[disk_index]
        self.wakeaheads_scheduled += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("power.wake_ahead", disk.name, predictor=self.predictor)
        if self.predictor == "sequence":
            seqs = self._future_seqs[disk_index]
            if not seqs:
                return  # nothing will ever arrive; wake on demand if at all
            gap = self._gap_ewma_s or 0.0
            lead = math.ceil(disk.spec.spinup_s / gap) if gap > 0 else 0
            self._wake_seq[disk_index] = max(self.arrivals_seen, seqs[0] - lead)
        else:
            next_access = self.next_access_time(disk_index)
            if next_access is None:
                return
            wake_at = max(self.sim.now, next_access - disk.spec.spinup_s)
            # -1 marks a pending time-based wake (cancelled by note_arrival).
            self._wake_seq[disk_index] = -1
            self.sim.call_soon(self._time_wake, (disk_index, wake_at), priority=URGENT)

    def _time_wake(self, plan: Tuple[int, float]) -> None:
        """Kick-off of a time-based wake-ahead: sleep until *wake_at*."""
        disk_index, wake_at = plan
        self.sim.call_later(wake_at - self.sim.now, self._wake_due, disk_index)

    def _wake_due(self, disk_index: int) -> None:
        """A time-based wake-ahead is due, unless an arrival cancelled it."""
        if self._wake_seq[disk_index] == -1:
            self._wake_seq[disk_index] = None
            self.disks[disk_index].wake()
        self.sim.call_soon(hold_slot)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PowerManager disks={len(self.disks)} enabled={self._enabled} "
            f"predictor={self.predictor} sleeps={self.sleeps_initiated}>"
        )
