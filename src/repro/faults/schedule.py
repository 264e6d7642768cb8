"""Declarative fault schedules.

A :class:`FaultSchedule` is a recipe of *what goes wrong and when*,
independent of any particular cluster instance.  Times are **relative to
the trace epoch** (the moment replay begins), so "kill node3 at t=60"
means sixty seconds into the workload regardless of how long placement
and prefetching took.

Two kinds of entries coexist:

* **deterministic actions** -- ``disk_fail("node1/data0", at=60.0)`` and
  friends, added through the chainable builder methods; and
* **stochastic processes** -- ``exponential_faults(...)`` describes an
  alternating fail/repair renewal process per target with exponential
  MTBF/MTTR.  These are *materialised* into concrete actions only when a
  :class:`~repro.sim.rng.RandomStreams` registry is supplied, using the
  dedicated ``faults:<target>`` streams -- failure times are therefore
  reproducible for a seed and independent of every workload stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Iterable, List, Optional, Tuple

from repro.sim.rng import RandomStreams

#: Action kinds understood by the injector.
DISK_FAIL = "disk_fail"
DISK_REPAIR = "disk_repair"
NODE_FAIL = "node_fail"
NODE_REPAIR = "node_repair"
DISK_SLOW = "disk_slow"
DISK_RESTORE = "disk_restore"
SPINUP_FLAKY = "spinup_flaky"
META_FAIL = "meta_fail"
META_REPAIR = "meta_repair"
META_LEADER_FAIL = "meta_leader_fail"
PARTITION = "partition"
HEAL = "heal"

_KINDS = frozenset(
    {
        DISK_FAIL,
        DISK_REPAIR,
        NODE_FAIL,
        NODE_REPAIR,
        DISK_SLOW,
        DISK_RESTORE,
        SPINUP_FLAKY,
        META_FAIL,
        META_REPAIR,
        META_LEADER_FAIL,
        PARTITION,
        HEAL,
    }
)


@dataclass(frozen=True, order=True)
class FaultAction:
    """One concrete fault event: *kind* happens to *target* at *time_s*.

    ``value``/``value2`` carry the kind-specific parameter (slow-disk
    factor, flaky spin-up count and back-off).  Ordering is by time, then
    kind/target for a total, reproducible order of simultaneous events.
    """

    time_s: float
    kind: str
    target: str
    value: float = 0.0
    value2: float = 0.0

    def __post_init__(self) -> None:
        # `not x >= 0` also rejects NaN, and a fault time must be finite.
        if not 0 <= self.time_s < math.inf:
            raise ValueError(f"fault time must be finite and >= 0, got {self.time_s!r}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if not self.target:
            raise ValueError("fault target must be non-empty")


@dataclass(frozen=True)
class ExponentialFaults:
    """An alternating exponential fail/repair process over the disks
    *targets*.

    Each target independently fails after ``Exp(mtbf_s)`` and repairs
    after ``Exp(mttr_s)`` (no repair events if ``mttr_s`` is None),
    repeating until ``horizon_s``.
    """

    targets: Tuple[str, ...]
    mtbf_s: float
    mttr_s: Optional[float]
    horizon_s: float

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("need at least one target")
        if not 0 < self.mtbf_s < math.inf:
            raise ValueError(f"mtbf_s must be finite and > 0, got {self.mtbf_s!r}")
        if self.mttr_s is not None and not 0 < self.mttr_s < math.inf:
            raise ValueError(f"mttr_s must be finite and > 0, got {self.mttr_s!r}")
        if not 0 < self.horizon_s < math.inf:
            raise ValueError(f"horizon_s must be finite and > 0, got {self.horizon_s!r}")


@dataclass
class FaultSchedule:
    """A buildable, materialisable schedule of fault actions.

    Builder methods return ``self`` so schedules chain::

        schedule = (
            FaultSchedule()
            .node_fail("node3", at=60.0)
            .node_repair("node3", at=240.0)
            .slow_disk("node1/data0", at=30.0, factor=4.0, until=90.0)
        )
    """

    _actions: List[FaultAction] = field(default_factory=list)
    _stochastic: List[ExponentialFaults] = field(default_factory=list)

    # -- deterministic builders ------------------------------------------------

    def add(self, action: FaultAction) -> "FaultSchedule":
        """Append a pre-built action."""
        self._actions.append(action)
        return self

    def _window(
        self, start: FaultAction, end_kind: str, until: Optional[float]
    ) -> "FaultSchedule":
        """Add *start* and, when *until* is set, the *end_kind* action
        that ends it then; an end not finite and after the start is
        rejected before either is added."""
        if until is not None and not start.time_s < until < math.inf:
            raise ValueError(f"until ({until!r}) must be after at ({start.time_s!r})")
        self.add(start)
        if until is not None:
            self.add(FaultAction(time_s=until, kind=end_kind, target=start.target))
        return self

    def disk_fail(self, disk: str, at: float) -> "FaultSchedule":
        """Permanently fail *disk* (e.g. ``"node1/data0"``) at *at*."""
        return self.add(FaultAction(time_s=at, kind=DISK_FAIL, target=disk))

    def disk_repair(self, disk: str, at: float) -> "FaultSchedule":
        """Repair a previously failed *disk* at *at*."""
        return self.add(FaultAction(time_s=at, kind=DISK_REPAIR, target=disk))

    def node_fail(
        self, node: str, at: float, until: Optional[float] = None
    ) -> "FaultSchedule":
        """Crash the whole storage node *node* (all its disks) at *at*;
        repair it at *until* if set."""
        return self._window(
            FaultAction(time_s=at, kind=NODE_FAIL, target=node), NODE_REPAIR, until
        )

    def node_repair(self, node: str, at: float) -> "FaultSchedule":
        """Bring a crashed *node* back at *at*."""
        return self.add(FaultAction(time_s=at, kind=NODE_REPAIR, target=node))

    def slow_disk(
        self,
        disk: str,
        at: float,
        factor: float,
        until: Optional[float] = None,
    ) -> "FaultSchedule":
        """Degrade *disk* by *factor* at *at*; restore at *until* if set."""
        if factor < 1.0:
            raise ValueError(f"slow-disk factor must be >= 1.0, got {factor!r}")
        return self._window(
            FaultAction(time_s=at, kind=DISK_SLOW, target=disk, value=factor),
            DISK_RESTORE,
            until,
        )

    def flaky_spinups(
        self, disk: str, at: float, count: int, backoff_s: float = 1.0
    ) -> "FaultSchedule":
        """Make the next *count* spin-ups of *disk* fail (with back-off)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s!r}")
        return self.add(
            FaultAction(
                time_s=at,
                kind=SPINUP_FLAKY,
                target=disk,
                value=float(count),
                value2=backoff_s,
            )
        )

    # -- metadata-plane builders (repro.metaplane) ------------------------------

    def meta_fail(self, server: str, at: float) -> "FaultSchedule":
        """Crash metadata-server replica *server* (``"meta-s0-r1"``)."""
        return self.add(FaultAction(time_s=at, kind=META_FAIL, target=server))

    def meta_repair(self, target: str, at: float) -> "FaultSchedule":
        """Repair a crashed metadata replica at *at*.

        *target* is either one replica (``"meta-s0-r1"``) or a whole
        shard (``"shard0"``), which repairs every crashed replica in the
        group -- the natural partner of :meth:`meta_leader_fail`, whose
        victim is not known until injection time.
        """
        return self.add(FaultAction(time_s=at, kind=META_REPAIR, target=target))

    def meta_leader_fail(self, shard: int, at: float) -> "FaultSchedule":
        """Crash whichever replica leads shard *shard* at time *at*.

        The victim is resolved at injection time (elections move
        leadership around), which is what makes this the chaos-drill
        primitive: it always hits the replica currently doing the work.
        """
        if shard < 0:
            raise ValueError(f"shard must be >= 0, got {shard!r}")
        return self.add(
            FaultAction(time_s=at, kind=META_LEADER_FAIL, target=f"shard{shard}")
        )

    def partition(
        self, endpoint: str, at: float, until: Optional[float] = None
    ) -> "FaultSchedule":
        """Isolate *endpoint* from the fabric at *at* (heal at *until*).

        A partitioned endpoint's inbound and outbound messages are
        dropped at delivery time; unlike a crash, the process keeps
        running -- a partitioned leader still believes it leads until the
        heal lets a newer term reach it.
        """
        return self._window(
            FaultAction(time_s=at, kind=PARTITION, target=endpoint), HEAL, until
        )

    # -- stochastic builder ----------------------------------------------------

    def exponential_faults(
        self,
        targets: Iterable[str],
        mtbf_s: float,
        horizon_s: float,
        mttr_s: Optional[float] = None,
    ) -> "FaultSchedule":
        """Add an exponential fail/repair renewal process over the disks
        *targets*."""
        self._stochastic.append(
            ExponentialFaults(
                targets=tuple(targets),
                mtbf_s=mtbf_s,
                mttr_s=mttr_s,
                horizon_s=horizon_s,
            )
        )
        return self

    # -- materialisation -------------------------------------------------------

    def actions(self) -> Tuple[FaultAction, ...]:
        """The deterministic actions, time-sorted (stochastic specs excluded)."""
        return tuple(sorted(self._actions))

    def materialize(
        self, streams: Optional[RandomStreams] = None
    ) -> Tuple[FaultAction, ...]:
        """Expand every entry into a time-sorted tuple of concrete actions.

        Stochastic specs draw from the registry's dedicated
        ``faults:<target>`` streams (see
        :meth:`repro.sim.rng.RandomStreams.fault_stream`): the sequence
        depends only on the root seed and the target name, never on
        which workload streams were consumed before.
        """
        actions = list(self._actions)
        if self._stochastic:
            if streams is None:
                raise ValueError(
                    "schedule contains stochastic fault processes; materialize "
                    "needs a RandomStreams registry"
                )
            for spec in self._stochastic:
                for target in spec.targets:
                    rng = streams.fault_stream(target)
                    t = float(rng.exponential(spec.mtbf_s))
                    while t < spec.horizon_s:
                        actions.append(
                            FaultAction(time_s=t, kind=DISK_FAIL, target=target)
                        )
                        if spec.mttr_s is None:
                            break  # no repair: the target stays down
                        t += float(rng.exponential(spec.mttr_s))
                        if t >= spec.horizon_s:
                            break
                        actions.append(
                            FaultAction(time_s=t, kind=DISK_REPAIR, target=target)
                        )
                        t += float(rng.exponential(spec.mtbf_s))
        return tuple(sorted(actions))

    def __len__(self) -> int:
        return len(self._actions)
