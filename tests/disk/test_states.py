"""Unit tests for the disk power-state machine.

Legality is checked where every move is made, in
:meth:`EnergyMeter.transition`, so these tests move a meter.
"""

import pytest

from repro.disk.energy import EnergyMeter
from repro.disk.specs import ATA_80GB_TYPE1
from repro.disk.states import (
    COUNTED_TRANSITIONS,
    DiskState,
    IllegalTransition,
    LEGAL_TRANSITIONS,
)


def _move(source, target):
    EnergyMeter(ATA_80GB_TYPE1, initial_state=source).transition(1.0, target)


def test_every_state_has_transition_entry():
    assert set(LEGAL_TRANSITIONS) == set(DiskState)


@pytest.mark.parametrize(
    "source, target",
    [
        (DiskState.ACTIVE, DiskState.IDLE),
        (DiskState.IDLE, DiskState.ACTIVE),
        (DiskState.IDLE, DiskState.SPIN_DOWN),
        (DiskState.SPIN_DOWN, DiskState.STANDBY),
        (DiskState.STANDBY, DiskState.SPIN_UP),
        (DiskState.SPIN_UP, DiskState.IDLE),
        (DiskState.SPIN_UP, DiskState.STANDBY),  # failed spin-up falls back
        (DiskState.STANDBY, DiskState.FAILED),  # hardware fault
        (DiskState.FAILED, DiskState.STANDBY),  # repair: comes back spun down
    ],
)
def test_legal_transitions_pass(source, target):
    _move(source, target)  # no raise


@pytest.mark.parametrize(
    "source, target",
    [
        (DiskState.ACTIVE, DiskState.SPIN_DOWN),  # must drain to idle first
        (DiskState.ACTIVE, DiskState.STANDBY),
        (DiskState.STANDBY, DiskState.ACTIVE),  # must spin up first
        (DiskState.STANDBY, DiskState.IDLE),
        (DiskState.SPIN_DOWN, DiskState.IDLE),  # no transition abort
        (DiskState.IDLE, DiskState.STANDBY),
    ],
)
def test_illegal_transitions_raise(source, target):
    with pytest.raises(IllegalTransition):
        _move(source, target)


def test_illegal_transition_message_names_states():
    with pytest.raises(IllegalTransition, match="active -> standby"):
        _move(DiskState.ACTIVE, DiskState.STANDBY)


def test_can_serve_classification():
    assert DiskState.ACTIVE.can_serve
    assert DiskState.IDLE.can_serve
    for state in (DiskState.SPIN_DOWN, DiskState.STANDBY, DiskState.SPIN_UP):
        assert not state.can_serve


def test_counted_transitions_are_standby_entry_and_exit():
    assert (DiskState.IDLE, DiskState.SPIN_DOWN) in COUNTED_TRANSITIONS
    assert (DiskState.STANDBY, DiskState.SPIN_UP) in COUNTED_TRANSITIONS
    assert (DiskState.ACTIVE, DiskState.IDLE) not in COUNTED_TRANSITIONS
    assert len(COUNTED_TRANSITIONS) == 2
