"""Telemetry instruments: gauges and the series they are sampled into.

The :class:`TelemetryRegistry` owns a namespace of gauges and turns them
into compact time series on simulated-time ticks:

* :class:`Gauge` -- a callback re-read at every sample (hit ratio,
  disks per power state, flash wear), so the model needs no push-side
  code;
* :class:`Series` -- the ``array('d')``-backed (time, value) columns the
  sampler appends to, mirroring :mod:`repro.sim.monitor`'s storage
  idiom.

Like the tracer, gauges only *read* model state.  Sampling runs on the
observability side (see :class:`repro.obs.runtime.Observability`) and is
never installed on untraced runs.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Optional, Tuple


class Series:
    """A (time, value) column pair backed by compact ``array('d')``.

    Plain data: picklable, no callbacks, safe to ship inside a
    :class:`~repro.obs.tracer.RunTrace` across process boundaries.
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: "array[float]" = array("d")
        self.values: "array[float]" = array("d")

    def append(self, time_s: float, value: float) -> None:
        """Record one sample."""
        self.times.append(time_s)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent (time, value) sample, or ``None`` if empty."""
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def mean(self) -> float:
        """Arithmetic mean of the sampled values (0.0 if empty)."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Series {self.name!r} n={len(self.times)}>"


class Gauge:
    """A value re-read from a callback at every sample tick.

    The callback closes over model objects (e.g. ``lambda: len(queue)``),
    which keeps instrumentation out of the model entirely -- but also
    means a Gauge must never leave the process; only its sampled
    :class:`Series` does.
    """

    __slots__ = ("name", "read")

    def __init__(self, name: str, read: Callable[[], float]) -> None:
        self.name = name
        self.read = read

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name!r}>"


class TelemetryRegistry:
    """Named gauges plus the sampler that turns them into series.

    Gauge names are unique; :meth:`sample` appends the current value of
    every gauge to its series.
    """

    __slots__ = ("gauges", "series")

    def __init__(self) -> None:
        self.gauges: Dict[str, Gauge] = {}
        self.series: Dict[str, Series] = {}

    def gauge(self, name: str, read: Callable[[], float]) -> Gauge:
        """Register the gauge *name* backed by callback *read*."""
        if name in self.gauges:
            raise ValueError(f"telemetry instrument already registered: {name!r}")
        instrument = Gauge(name, read)
        self.gauges[name] = instrument
        self.series[name] = Series(name)
        return instrument

    def sample(self, now: float) -> None:
        """Append one sample of every gauge at time *now*."""
        for name, gauge in self.gauges.items():
            self.series[name].append(now, float(gauge.read()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TelemetryRegistry gauges={len(self.gauges)}>"
