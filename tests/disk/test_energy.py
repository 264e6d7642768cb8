"""Unit tests for energy metering and break-even analysis."""

import pytest

from repro.disk import ATA_80GB_TYPE1, ATA_80GB_TYPE2, break_even_time, EnergyMeter
from repro.disk.energy import standby_energy_saved, standby_power_savings
from repro.disk.states import DiskState, IllegalTransition


class TestBreakEven:
    def test_break_even_formula(self):
        spec = ATA_80GB_TYPE1
        t_be = break_even_time(spec)
        expected = (
            spec.spindown_energy_j
            + spec.spinup_energy_j
            - spec.power_standby_w * (spec.spindown_s + spec.spinup_s)
        ) / (spec.power_idle_w - spec.power_standby_w)
        assert t_be == pytest.approx(expected)

    def test_break_even_at_least_transition_time(self):
        # Pathological spec: transitions nearly free but slow.
        spec = ATA_80GB_TYPE1.with_overrides(
            spinup_energy_j=3.0, spindown_energy_j=1.3, spinup_s=2.0, spindown_s=1.0
        )
        assert break_even_time(spec) >= spec.spinup_s + spec.spindown_s

    def test_testbed_break_even_near_idle_threshold(self):
        """The catalog drives break even just above the paper's 5 s threshold."""
        assert 4.0 <= break_even_time(ATA_80GB_TYPE1) <= 7.0
        assert 4.0 <= break_even_time(ATA_80GB_TYPE2) <= 7.0

    def test_savings_zero_exactly_at_break_even(self):
        spec = ATA_80GB_TYPE1
        t_be = break_even_time(spec)
        assert standby_energy_saved(spec, t_be) == pytest.approx(0.0, abs=1e-9)

    def test_savings_positive_beyond_break_even(self):
        spec = ATA_80GB_TYPE1
        assert standby_energy_saved(spec, break_even_time(spec) + 10.0) > 0

    def test_savings_negative_below_break_even(self):
        spec = ATA_80GB_TYPE1
        assert standby_energy_saved(spec, break_even_time(spec) / 2.0) < 0

    def test_savings_for_window_shorter_than_transitions(self):
        spec = ATA_80GB_TYPE1
        saved = standby_energy_saved(spec, 0.5)
        assert saved == -(spec.spindown_energy_j + spec.spinup_energy_j)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            standby_energy_saved(ATA_80GB_TYPE1, -1.0)

    def test_power_savings_rate(self):
        spec = ATA_80GB_TYPE1
        assert standby_power_savings(spec) == pytest.approx(
            spec.power_idle_w - spec.power_standby_w
        )


class TestEnergyMeter:
    def test_idle_energy_accrues(self):
        meter = EnergyMeter(ATA_80GB_TYPE1)
        meter.finalize(10.0)
        assert meter.energy_j() == pytest.approx(10.0 * ATA_80GB_TYPE1.power_idle_w)

    def test_active_interval_uses_active_power(self):
        spec = ATA_80GB_TYPE1
        meter = EnergyMeter(spec)
        meter.transition(2.0, DiskState.ACTIVE)
        meter.transition(5.0, DiskState.IDLE)
        meter.finalize(5.0)
        expected = 2.0 * spec.power_idle_w + 3.0 * spec.power_active_w
        assert meter.energy_j() == pytest.approx(expected)

    def test_full_sleep_cycle_energy(self):
        spec = ATA_80GB_TYPE1
        meter = EnergyMeter(spec)
        meter.transition(0.0, DiskState.SPIN_DOWN)
        meter.transition(spec.spindown_s, DiskState.STANDBY)
        t_wake = spec.spindown_s + 100.0
        meter.transition(t_wake, DiskState.SPIN_UP)
        meter.transition(t_wake + spec.spinup_s, DiskState.IDLE)
        meter.finalize(t_wake + spec.spinup_s)
        expected = (
            spec.spindown_energy_j
            + 100.0 * spec.power_standby_w
            + spec.spinup_energy_j
        )
        assert meter.energy_j() == pytest.approx(expected)

    def test_illegal_transition_rejected(self):
        meter = EnergyMeter(ATA_80GB_TYPE1)
        with pytest.raises(IllegalTransition):
            meter.transition(1.0, DiskState.STANDBY)

    def test_transition_counting(self):
        spec = ATA_80GB_TYPE1
        meter = EnergyMeter(spec)
        meter.transition(0.0, DiskState.SPIN_DOWN)
        meter.transition(1.0, DiskState.STANDBY)
        meter.transition(2.0, DiskState.SPIN_UP)
        meter.transition(4.0, DiskState.IDLE)
        assert meter.transition_count == 2
        assert meter.spindown_count == 1
        assert meter.spinup_count == 1

    def test_active_idle_flapping_not_counted(self):
        meter = EnergyMeter(ATA_80GB_TYPE1)
        for i in range(5):
            meter.transition(i + 0.0, DiskState.ACTIVE)
            meter.transition(i + 0.5, DiskState.IDLE)
        assert meter.transition_count == 0

    def test_time_in_state_accounting(self):
        meter = EnergyMeter(ATA_80GB_TYPE1)
        meter.transition(4.0, DiskState.ACTIVE)
        meter.transition(6.0, DiskState.IDLE)
        meter.finalize(10.0)
        assert meter.time_in_state[DiskState.IDLE] == pytest.approx(8.0)
        assert meter.time_in_state[DiskState.ACTIVE] == pytest.approx(2.0)

    def test_energy_until_extends_current_state(self):
        spec = ATA_80GB_TYPE1
        meter = EnergyMeter(spec)
        assert meter.energy_j(until=7.0) == pytest.approx(7.0 * spec.power_idle_w)

    def test_power_w_reflects_state(self):
        """The meter draws the current state's power: energy accrues at
        that rate until the next transition."""
        spec = ATA_80GB_TYPE1
        meter = EnergyMeter(spec)
        assert meter.energy_j(until=1.0) == spec.power_idle_w
        meter.transition(1.0, DiskState.ACTIVE)
        assert meter.energy_j(until=2.0) - meter.energy_j() == spec.power_active_w


class TestEnergyIntegral:
    """The meter keeps its own clock: power is piecewise constant, one
    level per state, and integrates over the intervals between
    transitions."""

    def test_integral_of_constant_level(self):
        meter = EnergyMeter(ATA_80GB_TYPE1)
        meter.finalize(5.0)
        assert meter.energy_j() == 5.0 * ATA_80GB_TYPE1.power_idle_w

    def test_integral_of_step_function(self):
        spec = ATA_80GB_TYPE1
        meter = EnergyMeter(spec)
        meter.transition(2.0, DiskState.SPIN_DOWN)  # idle for 2 s
        meter.transition(3.0, DiskState.STANDBY)  # spinning down for 1 s
        meter.finalize(5.0)  # standby for 2 s
        expected = 2.0 * spec.power_idle_w + spec.spindown_power_w + 2.0 * spec.power_standby_w
        assert meter.energy_j() == pytest.approx(expected)

    def test_integral_until_extends_current_level(self):
        spec = ATA_80GB_TYPE1
        meter = EnergyMeter(spec)
        meter.transition(1.0, DiskState.ACTIVE)
        assert meter.energy_j(until=3.0) == pytest.approx(
            spec.power_idle_w * 1.0 + spec.power_active_w * 2.0
        )
        assert meter.energy_j() == spec.power_idle_w  # the account itself is untouched

    def test_backwards_time_rejected(self):
        meter = EnergyMeter(ATA_80GB_TYPE1)
        meter.transition(5.0, DiskState.ACTIVE)
        before = (meter.state, meter.energy_j(), dict(meter.time_in_state))
        with pytest.raises(ValueError, match="backwards"):
            meter.transition(4.0, DiskState.IDLE)
        with pytest.raises(ValueError, match="backwards"):
            meter.finalize(4.0)
        # Rejected before any counter moved.
        assert (meter.state, meter.energy_j(), dict(meter.time_in_state)) == before
        meter.transition(6.0, DiskState.IDLE)
        assert meter.time_in_state[DiskState.ACTIVE] == 1.0

    def test_integral_until_before_last_update_rejected(self):
        meter = EnergyMeter(ATA_80GB_TYPE1)
        meter.transition(5.0, DiskState.ACTIVE)
        with pytest.raises(ValueError):
            meter.energy_j(until=4.0)

    def test_nonzero_start_time(self):
        spec = ATA_80GB_TYPE1
        meter = EnergyMeter(spec, start_time=10.0)
        meter.transition(20.0, DiskState.ACTIVE)
        assert meter.energy_j() == 10.0 * spec.power_idle_w
        assert meter.time_in_state[DiskState.IDLE] == 10.0
