"""Deterministic discrete-event simulation kernel.

This package is the substrate every other subsystem of the EEVFS
reproduction runs on.  It carries one way to wait: flat callbacks.  A
continuation ``fn(arg)`` runs at a time (``call_soon`` / ``call_later``),
or a callback runs when an :class:`Event` it subscribed to is processed.

* :mod:`repro.sim.engine` -- the :class:`Simulator` (clock, heap, lanes,
  ``call_soon`` / ``call_later`` continuations),
* :mod:`repro.sim.events` -- events and the :class:`AllOf` countdown,
* :mod:`repro.sim.resources` -- the single-consumer :class:`Mailbox`,
* :mod:`repro.sim.monitor` -- tally statistics collection,
* :mod:`repro.sim.rng` -- named, reproducible random-number streams.

The engine is fully deterministic: given the same seed and the same model,
every run produces an identical event sequence.  All simulated
time is in **seconds** (float).
"""

from repro.sim.engine import LanePerturbation, Simulator, StopSimulation
from repro.sim.events import AllOf, Event
from repro.sim.monitor import TallyStat
from repro.sim.resources import Mailbox
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "Event",
    "LanePerturbation",
    "Mailbox",
    "RandomStreams",
    "Simulator",
    "StopSimulation",
    "TallyStat",
]
