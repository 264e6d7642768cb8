"""Deterministic discrete-event simulation kernel.

This package is the substrate every other subsystem of the EEVFS
reproduction runs on.  It provides a small but complete generator-coroutine
event engine in the style popularised by SimPy, written from scratch:

* :mod:`repro.sim.events` -- events, timeouts and condition events,
* :mod:`repro.sim.engine` -- the :class:`Simulator` (clock + event heap),
* :mod:`repro.sim.process` -- processes (generator coroutines),
* :mod:`repro.sim.resources` -- slot resources and single-consumer mailboxes,
* :mod:`repro.sim.monitor` -- tally / time-weighted statistics collection,
* :mod:`repro.sim.rng` -- named, reproducible random-number streams.

The engine is fully deterministic: given the same seed and the same process
structure, every run produces an identical event sequence.  All simulated
time is in **seconds** (float).
"""

from repro.sim.engine import LanePerturbation, Simulator, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.monitor import TallyStat, TimeWeightedStat
from repro.sim.process import Process
from repro.sim.resources import Mailbox, Resource
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "LanePerturbation",
    "Mailbox",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulator",
    "StopSimulation",
    "TallyStat",
    "Timeout",
    "TimeWeightedStat",
]
