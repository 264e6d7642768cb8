"""The disk power-state machine.

The paper (and the DPM literature it builds on, [14] in its references)
models a drive with a small set of power states.  We use five:

========  =====================================================
ACTIVE    platters spinning, head servicing a request
IDLE      platters spinning, no request in service
SPIN_DOWN transitioning IDLE -> STANDBY (takes time, costs energy)
STANDBY   platters stopped; must spin up before serving
SPIN_UP   transitioning STANDBY -> IDLE (the ~2 s penalty of §VI-C)
========  =====================================================

Transitions outside :data:`LEGAL_TRANSITIONS` indicate a logic error in a
power-management policy and raise immediately rather than corrupting the
energy account.
"""

from __future__ import annotations

import enum


class DiskState(enum.Enum):
    """Power states of a simulated drive.

    The ``LOW_*`` / ``SHIFT_*`` states exist only on multi-speed (DRPM,
    [10]) drives -- a reduced-RPM operating point with its own power and
    bandwidth, reached through a speed shift rather than a full
    spin-down.
    """

    ACTIVE = "active"
    IDLE = "idle"
    SPIN_DOWN = "spin_down"
    STANDBY = "standby"
    SPIN_UP = "spin_up"
    #: Multi-speed extension: reduced-RPM operating points.
    LOW_IDLE = "low_idle"
    LOW_ACTIVE = "low_active"
    SHIFT_DOWN = "shift_down"
    #: The hardware can shift back up; no policy here does, but every
    #: record's per-state times keep the key.
    SHIFT_UP = "shift_up"
    #: Terminal hardware failure (fault-injection testing).
    FAILED = "failed"

    # Members are singletons, so identity hashing (in C) is equivalent to
    # Enum's Python-level name hash, and every state-keyed lookup on the
    # transition path skips a Python call.
    __hash__ = object.__hash__

    @property
    def can_serve(self) -> bool:
        """True if a request could start service without a transition."""
        return self in (
            DiskState.ACTIVE,
            DiskState.IDLE,
            DiskState.LOW_IDLE,
            DiskState.LOW_ACTIVE,
        )

    @property
    def is_low_speed(self) -> bool:
        """True at the reduced-RPM operating point."""
        return self in (DiskState.LOW_IDLE, DiskState.LOW_ACTIVE)


#: Allowed state transitions.  ``ACTIVE -> SPIN_DOWN`` is deliberately
#: absent: a disk must drain to IDLE before a power policy may sleep it;
#: likewise speed shifts start from the matching idle state.
LEGAL_TRANSITIONS: dict[DiskState, frozenset[DiskState]] = {
    DiskState.ACTIVE: frozenset({DiskState.IDLE, DiskState.FAILED}),
    DiskState.IDLE: frozenset(
        {DiskState.ACTIVE, DiskState.SPIN_DOWN, DiskState.SHIFT_DOWN, DiskState.FAILED}
    ),
    DiskState.SPIN_DOWN: frozenset({DiskState.STANDBY, DiskState.FAILED}),
    DiskState.STANDBY: frozenset({DiskState.SPIN_UP, DiskState.FAILED}),
    # SPIN_UP -> STANDBY is a *failed* spin-up (fault injection): the
    # motor did not reach speed and the drive falls back to standby.
    DiskState.SPIN_UP: frozenset(
        {DiskState.IDLE, DiskState.STANDBY, DiskState.FAILED}
    ),
    DiskState.SHIFT_DOWN: frozenset({DiskState.LOW_IDLE, DiskState.FAILED}),
    DiskState.LOW_IDLE: frozenset(
        {
            DiskState.LOW_ACTIVE,
            DiskState.SHIFT_UP,
            DiskState.SPIN_DOWN,
            DiskState.FAILED,
        }
    ),
    DiskState.LOW_ACTIVE: frozenset({DiskState.LOW_IDLE, DiskState.FAILED}),
    DiskState.SHIFT_UP: frozenset({DiskState.IDLE, DiskState.FAILED}),
    # FAILED -> STANDBY is a *repair*: the drive (or its controller) is
    # replaced/restarted by the fault-injection layer and comes back spun
    # down.  Outside repro.faults the state remains terminal in practice.
    DiskState.FAILED: frozenset({DiskState.STANDBY}),
}


class IllegalTransition(RuntimeError):
    """Raised when a policy attempts a transition the hardware cannot do."""

    def __init__(self, source: DiskState, target: DiskState) -> None:
        super().__init__(f"illegal disk state transition {source.value} -> {target.value}")
        self.source = source
        self.target = target


#: Transitions counted by the paper's "number of power state transitions"
#: metric (Fig. 4): entering and leaving standby, i.e. each spin-down and
#: each spin-up counts as one.
COUNTED_TRANSITIONS: frozenset[tuple[DiskState, DiskState]] = frozenset(
    {
        (DiskState.IDLE, DiskState.SPIN_DOWN),
        (DiskState.STANDBY, DiskState.SPIN_UP),
    }
)
