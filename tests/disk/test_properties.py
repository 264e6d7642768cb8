"""Property-based tests for the disk substrate."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.disk import ATA_80GB_TYPE1, break_even_time, SimDisk
from repro.disk.energy import EnergyMeter, standby_energy_saved
from repro.disk.specs import DiskSpec, MB, MULTISPEED_80GB
from repro.disk.states import DiskState, LEGAL_TRANSITIONS
from repro.sim import Simulator

SPEC = ATA_80GB_TYPE1


@st.composite
def disk_specs(draw):
    """Random but physically consistent drive specs."""
    standby = draw(st.floats(min_value=0.1, max_value=3.0))
    idle = standby + draw(st.floats(min_value=0.5, max_value=10.0))
    active = idle + draw(st.floats(min_value=0.0, max_value=10.0))
    spinup_s = draw(st.floats(min_value=0.5, max_value=10.0))
    spindown_s = draw(st.floats(min_value=0.2, max_value=5.0))
    spinup_energy = spinup_s * draw(st.floats(min_value=max(standby, 1.0), max_value=30.0))
    spindown_energy = spindown_s * draw(st.floats(min_value=0.5, max_value=20.0))
    return DiskSpec(
        name="hyp",
        capacity_bytes=draw(st.integers(min_value=1, max_value=10**13)),
        bandwidth_bps=draw(st.floats(min_value=1e6, max_value=5e8)),
        avg_seek_s=draw(st.floats(min_value=0.0, max_value=0.05)),
        avg_rotation_s=draw(st.floats(min_value=0.0, max_value=0.02)),
        power_active_w=active,
        power_idle_w=idle,
        power_standby_w=standby,
        spinup_s=spinup_s,
        spinup_energy_j=spinup_energy,
        spindown_s=spindown_s,
        spindown_energy_j=spindown_energy,
    )


@given(disk_specs())
def test_break_even_properties(spec):
    t_be = break_even_time(spec)
    # Break-even is always at least the physical transition time ...
    assert t_be >= spec.spindown_s + spec.spinup_s - 1e-12
    # ... and sleeping a window strictly longer than it always saves energy.
    assert standby_energy_saved(spec, t_be * 1.5 + 1.0) > 0


@given(disk_specs(), st.floats(min_value=0.0, max_value=10_000.0))
def test_savings_monotone_in_window(spec, window):
    """Longer windows never save less energy."""
    a = standby_energy_saved(spec, window)
    b = standby_energy_saved(spec, window + 1.0)
    assert b >= a - 1e-9


@given(
    st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=20),
)
def test_meter_energy_equals_sum_of_state_integrals(durations):
    """Total energy == sum over states of (power * time-in-state)."""
    spec = SPEC
    meter = EnergyMeter(spec)
    t = 0.0
    state = DiskState.IDLE
    for dt in durations:
        t += dt
        # Alternate IDLE <-> ACTIVE (always legal both ways).
        state = DiskState.ACTIVE if state is DiskState.IDLE else DiskState.IDLE
        meter.transition(t, state)
    meter.finalize(t + 1.0)
    by_state = (
        meter.time_in_state[DiskState.IDLE] * spec.power_idle_w
        + meter.time_in_state[DiskState.ACTIVE] * spec.power_active_w
    )
    assert math.isclose(meter.energy_j(), by_state, rel_tol=1e-9)


def _state_power(spec):
    """Each state's draw for a multi-speed *spec*, written out."""
    low = spec.low_speed
    return {
        DiskState.ACTIVE: spec.power_active_w,
        DiskState.IDLE: spec.power_idle_w,
        DiskState.STANDBY: spec.power_standby_w,
        DiskState.SPIN_UP: spec.spinup_power_w,
        DiskState.SPIN_DOWN: spec.spindown_power_w,
        DiskState.FAILED: 0.0,
        DiskState.LOW_ACTIVE: low.power_active_w,
        DiskState.LOW_IDLE: low.power_idle_w,
        DiskState.SHIFT_UP: low.shift_power_w,
        DiskState.SHIFT_DOWN: low.shift_power_w,
    }


@given(
    st.floats(min_value=0.0, max_value=1e4),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=99),  # which legal successor
            st.floats(min_value=0.0, max_value=50.0),  # dwell before the move
        ),
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=1e-6, max_value=10.0),
)
def test_meter_energy_is_the_ordered_sum_of_power_times_dwell(start, walk, back):
    """A random legal walk through every state of a multi-speed drive:
    the energy is exactly the sum of power x dwell in visiting order,
    the dwell times add up to the elapsed time, and a step back in time
    is refused before any counter moves."""
    spec = MULTISPEED_80GB
    power = _state_power(spec)
    meter = EnergyMeter(spec, start_time=start)
    state, t = DiskState.IDLE, start
    energy = 0.0
    dwell = {s: 0.0 for s in DiskState}
    for choice, dt in walk:
        successors = sorted(LEGAL_TRANSITIONS[state], key=lambda s: s.value)
        target = successors[choice % len(successors)]
        now = t + dt
        meter.transition(now, target)
        energy += power[state] * (now - t)
        dwell[state] += now - t
        state, t = target, now
    end = t + 1.0
    meter.finalize(end)
    energy += power[state] * (end - t)
    dwell[state] += end - t

    assert meter.energy_j() == energy
    assert meter.time_in_state == dwell
    assert math.isclose(sum(meter.time_in_state.values()), end - start, rel_tol=1e-9)

    def counters():
        return meter.state, meter.energy_j(), dict(meter.time_in_state), meter.transition_count

    before = counters()
    target = sorted(LEGAL_TRANSITIONS[state], key=lambda s: s.value)[0]
    with pytest.raises(ValueError, match="backwards"):
        meter.transition(end - back, target)
    with pytest.raises(ValueError, match="backwards"):
        meter.finalize(end - back)
    assert counters() == before


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=30.0),  # gap before request
            st.integers(min_value=0, max_value=64 * MB),  # size
        ),
        min_size=1,
        max_size=15,
    ),
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=10.0)),
)
def test_drive_always_serves_everything(jobs, auto_sleep):
    """No request is ever lost, whatever the sleep policy does."""
    sim = Simulator()
    disk = SimDisk(sim, SPEC, auto_sleep_after=auto_sleep)
    done = []

    def sleep_then_submit(index):
        # Sleep the job's gap, submit it, and go on once it is done.
        if index < len(jobs):
            sim.call_later(jobs[index][0], submit, index)

    def submit(index):
        req = disk.submit(jobs[index][1])
        req.done.callbacks.append(
            lambda _event: (done.append(req.request_id), sleep_then_submit(index + 1))
        )

    sleep_then_submit(0)
    sim.run()
    assert len(done) == len(jobs)
    assert disk.inflight == 0
    assert disk.requests_served == len(jobs)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=12),
)
def test_energy_account_never_negative_and_bounded(gaps):
    """Energy is within [standby_power * T, active_power_envelope * T]."""
    sim = Simulator()
    disk = SimDisk(sim, SPEC, auto_sleep_after=5.0)

    def sleep_then_submit(index):
        if index < len(gaps):
            sim.call_later(gaps[index], submit, index)

    def submit(index):
        disk.submit(4 * MB).done.callbacks.append(
            lambda _event: sleep_then_submit(index + 1)
        )

    sleep_then_submit(0)
    sim.run()
    disk.finalize()
    total_t = sim.now
    energy = disk.energy_j()
    max_power = max(
        SPEC.power_active_w, SPEC.spinup_power_w, SPEC.spindown_power_w
    )
    assert energy >= SPEC.power_standby_w * total_t - 1e-6
    assert energy <= max_power * total_t + 1e-6


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=6.5, max_value=40.0), min_size=2, max_size=10))
def test_transitions_come_in_balanced_pairs(gaps):
    """After the run drains, spin-ups never exceed spin-downs, and differ
    by at most one (a final spin-down can be un-woken)."""
    sim = Simulator()
    disk = SimDisk(sim, SPEC, auto_sleep_after=5.0)

    def submit(index):
        if index < len(gaps):
            disk.submit(1 * MB).done.callbacks.append(
                lambda _event: sim.call_later(gaps[index], submit, index + 1)
            )

    submit(0)
    sim.run()
    ups = disk.meter.spinup_count
    downs = disk.meter.spindown_count
    assert ups <= downs <= ups + 1
