"""Observability runtime: wires tracer + telemetry onto one simulator.

:class:`Observability` is the single attachment point the cluster layer
uses.  On :meth:`attach` it

* publishes the :class:`~repro.obs.tracer.Tracer` on ``sim.tracer``
  (instrumented components None-check that attribute), and
* starts the telemetry sampler, a timer that samples every gauge
  each :data:`DEFAULT_SAMPLE_INTERVAL_S` of simulated time.

It installs no engine event hook, so a traced run dispatches through
the same inlined loop as an untraced one.

The sampler is an infinite loop, which is safe here because the cluster
runs the engine with ``run(until=<event>)``; it must not be attached to
a model that runs the heap to exhaustion (the run would never drain).
All of this is strictly additive: nothing in this module schedules
model events, draws randomness, or mutates model state, so a traced
run's metrics equal an untraced run's.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.tracer import RunTrace, Tracer
from repro.obs.telemetry import TelemetryRegistry
from repro.sim.engine import Simulator
from repro.sim.events import URGENT

#: Simulated-time spacing between telemetry samples.
DEFAULT_SAMPLE_INTERVAL_S = 1.0


class Observability:
    """Tracer + telemetry registry bound to one :class:`Simulator`."""

    __slots__ = ("sim", "tracer", "telemetry")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.tracer = Tracer(sim)
        self.telemetry = TelemetryRegistry()

    # -- lifecycle ----------------------------------------------------------------

    def attach(self) -> "Observability":
        """Install the tracer and start the sampler (returns self)."""
        if self.sim.tracer is not None:
            raise RuntimeError("simulator already has a tracer attached")
        self.sim.tracer = self.tracer
        self.sim.call_soon(self._sample, priority=URGENT)
        return self

    def _sample(self, _value: Any = None) -> None:
        """Sample all instruments, then again every tick, forever."""
        self.telemetry.sample(self.sim.now)
        self.sim.call_later(DEFAULT_SAMPLE_INTERVAL_S, self._sample)

    # -- output -------------------------------------------------------------------

    def snapshot(self) -> RunTrace:
        """Freeze the run into a plain-data :class:`RunTrace`.

        Takes one final telemetry sample at the current instant (so the
        series always cover the full run) before snapshotting.
        """
        self.telemetry.sample(self.sim.now)
        return self.tracer.snapshot(series=self.telemetry.series)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Observability spans={len(self.tracer.spans)}>"


def maybe_snapshot(observer: Optional[Observability]) -> Optional[RunTrace]:
    """Snapshot *observer* if present; ``None`` passthrough otherwise."""
    if observer is None:
        return None
    return observer.snapshot()
