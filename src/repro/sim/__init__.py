"""Deterministic discrete-event simulation kernel.

This package is the substrate every other subsystem of the EEVFS
reproduction runs on.  It carries only what the simulator dispatches:
flat ``(fn, arg)`` continuations for the hot paths, plus the few events
and generator processes the setup and control loops still wait on.

* :mod:`repro.sim.engine` -- the :class:`Simulator` (clock, heap, lanes,
  ``call_soon`` / ``call_later`` continuations),
* :mod:`repro.sim.events` -- events, timeouts and the :class:`AllOf`
  countdown,
* :mod:`repro.sim.process` -- processes (generator coroutines),
* :mod:`repro.sim.resources` -- the single-consumer :class:`Mailbox`,
* :mod:`repro.sim.monitor` -- tally statistics collection,
* :mod:`repro.sim.rng` -- named, reproducible random-number streams.

The engine is fully deterministic: given the same seed and the same process
structure, every run produces an identical event sequence.  All simulated
time is in **seconds** (float).
"""

from repro.sim.engine import LanePerturbation, Simulator, StopSimulation
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.monitor import TallyStat
from repro.sim.process import Process
from repro.sim.resources import Mailbox
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "Event",
    "LanePerturbation",
    "Mailbox",
    "Process",
    "RandomStreams",
    "Simulator",
    "StopSimulation",
    "TallyStat",
    "Timeout",
]
