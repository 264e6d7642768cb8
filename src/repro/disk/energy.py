"""Energy metering and break-even analysis for drives.

The *break-even time* is the minimum idle period for which a
spin-down/spin-up round trip saves energy at all: below it, the transition
energy exceeds what standby saves.  §II calls large break-even times the
fundamental limiter of disk power management; the prefetcher exists to
manufacture idle windows longer than it.
"""

from __future__ import annotations

from typing import NoReturn, Optional, Protocol, runtime_checkable

from repro.disk.specs import LowSpeedProfile
from repro.disk.states import COUNTED_TRANSITIONS, DiskState, IllegalTransition, LEGAL_TRANSITIONS


@runtime_checkable
class PowerEnvelope(Protocol):
    """The power economics every meterable device spec exposes.

    Structural: :class:`~repro.disk.specs.DiskSpec` satisfies it with
    plain dataclass fields, while an SSD spec maps the "spin"
    transitions onto DEVSLP entry/exit via properties.  Everything in
    this module -- the meter and the break-even analysis -- types
    against this surface, not against any concrete spec.
    """

    @property
    def name(self) -> str: ...

    @property
    def power_active_w(self) -> float: ...

    @property
    def power_idle_w(self) -> float: ...

    @property
    def power_standby_w(self) -> float: ...

    @property
    def spinup_s(self) -> float: ...

    @property
    def spindown_s(self) -> float: ...

    @property
    def spinup_energy_j(self) -> float: ...

    @property
    def spindown_energy_j(self) -> float: ...

    @property
    def spinup_power_w(self) -> float: ...

    @property
    def spindown_power_w(self) -> float: ...

    @property
    def low_speed(self) -> Optional[LowSpeedProfile]: ...


def standby_power_savings(spec: PowerEnvelope) -> float:
    """Watts saved per second of standby versus sitting idle."""
    return spec.power_idle_w - spec.power_standby_w


def break_even_time(spec: PowerEnvelope) -> float:
    """Idle-window length at which sleeping exactly breaks even.

    For an idle window of length ``T`` the disk can either idle
    (``E = P_idle * T``) or round-trip through standby
    (``E = E_down + E_up + P_standby * (T - t_down - t_up)``).
    Equating the two and solving for ``T``::

        T_be = (E_down + E_up - P_standby * (t_down + t_up))
               / (P_idle - P_standby)
    """
    transition_time = spec.spindown_s + spec.spinup_s
    transition_energy = spec.spindown_energy_j + spec.spinup_energy_j
    numerator = transition_energy - spec.power_standby_w * transition_time
    denominator = standby_power_savings(spec)
    t_be = numerator / denominator
    # A window shorter than the transitions themselves cannot be slept at
    # all, whatever the energies say.
    return max(t_be, transition_time)


def standby_energy_saved(spec: PowerEnvelope, idle_window_s: float) -> float:
    """Joules saved by sleeping through *idle_window_s* (can be negative)."""
    if idle_window_s < 0:
        raise ValueError(f"negative idle window: {idle_window_s!r}")
    transition_time = spec.spindown_s + spec.spinup_s
    if idle_window_s < transition_time:
        # Cannot complete the round trip inside the window; treat the whole
        # attempt as transition cost on top of what idling would have used.
        return -(spec.spindown_energy_j + spec.spinup_energy_j)
    idle_cost = spec.power_idle_w * idle_window_s
    sleep_cost = (
        spec.spindown_energy_j
        + spec.spinup_energy_j
        + spec.power_standby_w * (idle_window_s - transition_time)
    )
    return idle_cost - sleep_cost


def _state_powers(spec: PowerEnvelope) -> dict[DiskState, float]:
    """Per-state power draw of *spec*, resolved once.

    LOW_*/SHIFT_* states exist only for multi-speed specs; a
    single-speed spec's meter simply has no entry for them (and
    :data:`LEGAL_TRANSITIONS` keeps it out of those states anyway).
    """
    powers = {
        DiskState.ACTIVE: spec.power_active_w,
        DiskState.IDLE: spec.power_idle_w,
        DiskState.STANDBY: spec.power_standby_w,
        DiskState.SPIN_UP: spec.spinup_power_w,
        DiskState.SPIN_DOWN: spec.spindown_power_w,
        DiskState.FAILED: 0.0,
    }
    low = spec.low_speed
    if low is not None:
        powers[DiskState.LOW_ACTIVE] = low.power_active_w
        powers[DiskState.LOW_IDLE] = low.power_idle_w
        powers[DiskState.SHIFT_UP] = low.shift_power_w
        powers[DiskState.SHIFT_DOWN] = low.shift_power_w
    return powers


class EnergyMeter:
    """Per-drive energy account driven by state changes.

    Every call to :meth:`transition` validates the move against the state
    machine, accrues energy and dwell time for the elapsed interval at
    the old state's power, and counts standby entries/exits (the paper's
    Fig. 4 metric).  The power draw is piecewise constant, so the energy
    is the exact sum of power x dwell over the intervals, in order.
    """

    def __init__(
        self,
        spec: PowerEnvelope,
        start_time: float = 0.0,
        initial_state: DiskState = DiskState.IDLE,
    ) -> None:
        self.spec = spec
        self.state = initial_state
        # The spec never changes, so resolve the per-state power draw once
        # instead of recomputing it on every transition.
        self._power_w_by_state = _state_powers(spec)
        #: The draw in the current state, and the joules accrued up to
        #: the last transition.
        self._power_w = self._power_w_by_state[initial_state]
        self._energy_j = 0.0
        self._last_time = float(start_time)
        self.transition_count = 0
        self.spinup_count = 0
        self.spindown_count = 0
        #: Speed shifts (multi-speed drives only; not in Fig. 4's metric).
        self.shift_count = 0
        self.time_in_state: dict[DiskState, float] = {s: 0.0 for s in DiskState}

    def transition(self, time: float, new_state: DiskState) -> None:
        """Move to *new_state* at *time*, accruing energy for the interval.

        Raises :class:`IllegalTransition` unless :data:`LEGAL_TRANSITIONS`
        allows the move."""
        state = self.state
        if new_state not in LEGAL_TRANSITIONS[state]:
            raise IllegalTransition(state, new_state)
        time = float(time)
        last = self._last_time
        if time < last:
            self._moved_backwards(time)
        elapsed = time - last
        self.time_in_state[state] += elapsed
        self._energy_j += self._power_w * elapsed
        self._power_w = self._power_w_by_state[new_state]
        if (state, new_state) in COUNTED_TRANSITIONS:
            self.transition_count += 1
            if new_state is DiskState.SPIN_DOWN:
                self.spindown_count += 1
            else:
                self.spinup_count += 1
        if new_state in (DiskState.SHIFT_UP, DiskState.SHIFT_DOWN):
            self.shift_count += 1
        self.state = new_state
        self._last_time = time

    def energy_j(self, until: Optional[float] = None) -> float:
        """Total joules consumed from start until *until* (default: the
        last transition, or the close of the account)."""
        if until is None:
            return self._energy_j
        until = float(until)
        if until < self._last_time:
            raise ValueError(f"until={until!r} precedes last update {self._last_time!r}")
        return self._energy_j + self._power_w * (until - self._last_time)

    def finalize(self, time: float) -> None:
        """Close the account at *time* (accrue the final interval)."""
        time = float(time)
        if time < self._last_time:
            self._moved_backwards(time)
        elapsed = time - self._last_time
        self.time_in_state[self.state] += elapsed
        self._energy_j += self._power_w * elapsed
        self._last_time = time

    def _moved_backwards(self, time: float) -> NoReturn:
        raise ValueError(
            f"{self.spec.name}: time moved backwards ({time!r} < {self._last_time!r})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EnergyMeter {self.spec.name} state={self.state.value} "
            f"E={self.energy_j():.1f}J transitions={self.transition_count}>"
        )
