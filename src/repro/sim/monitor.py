"""Statistics collection for simulations.

One collector, :class:`TallyStat`, covers the per-observation statistics
the reproduction measures (response times, service times): Welford's
online algorithm, with optional sample retention for percentiles.  The
time integral of power (energy) is the drive's own account,
:class:`~repro.disk.energy.EnergyMeter`.
"""

from __future__ import annotations

from array import array
import math
from typing import Any


class TallyStat:
    """Streaming mean/variance/min/max over discrete observations.

    Retained samples live in a compact ``array('d')`` buffer rather than a
    Python list: one machine double per observation instead of a boxed
    float object, which matters when every simulated request records into
    several of these.
    """

    __slots__ = ("name", "keep_samples", "samples", "_n", "_mean", "_m2", "_min", "_max")

    def __init__(self, name: str = "", keep_samples: bool = False) -> None:
        self.name = name
        self.keep_samples = keep_samples
        self.samples: array[float] = array("d")
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        if value != value:  # NaN check without a math.isnan call
            raise ValueError(f"{self.name or 'TallyStat'}: NaN observation")
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self.keep_samples:
            self.samples.append(value)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        """Sample mean (NaN if empty)."""
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN with < 2 observations)."""
        return self._m2 / (self._n - 1) if self._n >= 2 else math.nan

    @property
    def std(self) -> float:
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    @property
    def total(self) -> float:
        return self._mean * self._n

    @property
    def minimum(self) -> float:
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._n else math.nan

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile; requires ``keep_samples=True``."""
        if not self.keep_samples:
            raise RuntimeError("percentile() requires keep_samples=True")
        if not self.samples:
            return math.nan
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q={q!r} outside [0, 100]")
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        pos = (len(data) - 1) * q / 100.0
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def as_dict(self) -> dict[str, Any]:
        """Summary suitable for JSON export (plus ``p99`` when samples
        are kept)."""
        summary: dict[str, Any] = {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "total": self.total,
        }
        if self.keep_samples:
            summary["p99"] = self.percentile(99)
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TallyStat {self.name!r} n={self._n} mean={self.mean:.4g}>"
