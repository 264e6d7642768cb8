"""Streaming popularity estimation (online mode, no oracle).

The paper derives its popularity ranking from a *complete* access trace
known in advance (§IV-A).  Online mode replaces that oracle with
estimators that learn from the observed request stream only, while
satisfying the same :class:`~repro.core.popularity.PopularitySource`
ranking protocol, and ranking by the same
:func:`~repro.core.popularity.ranked` rule, so replanning can consume
either interchangeably:

* :class:`EMAEstimator` -- exact per-file exponentially-decayed counts.
  Memory is O(distinct files observed); the decay half-life makes the
  ranking track popularity drift instead of lifetime totals.
* :class:`CountMinEstimator` -- a Count-Min Sketch (conservative
  update) plus a bounded decaying top-set.  Memory is O(width x depth
  + capacity) regardless of catalog size; estimates overcount by at
  most the classic eps*N sketch bound, never undercount.

Determinism: neither estimator draws randomness.  EMA decay is a pure
function of access timestamps; the sketch's row hashes are fixed
odd multipliers derived from SHA-256 of the row index, so the same
stream always produces the same ranking on every platform.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import EEVFSConfig
from repro.core.popularity import ranked

#: Both estimators halve an access's weight every this many seconds of
#: stream time.
HALFLIFE_S = 120.0

#: Files the Count-Min estimator's top-set ranks exactly.
TOP_SET_CAPACITY = 256

#: Renormalise EMA weights once the shared exponent passes this many
#: half-lives, keeping scores in floating-point range over arbitrarily
#: long runs without changing their ratios (hence never the ranking).
_EMA_RESCALE_HALFLIVES = 256.0


class EMAEstimator:
    """Exact exponentially-decayed access scores, one per observed file.

    Each access at time ``t`` contributes weight ``2**((t - t_now) /
    HALFLIFE_S)`` when read at ``t_now``: an access loses half its weight
    every half-life.  Internally scores share a common time origin so
    ``record`` is O(1) and no per-read decay sweep is needed; the origin
    is shifted (rescaling every score by the same factor) before the
    shared exponent can overflow.
    """

    def __init__(self) -> None:
        self._scores: Dict[int, float] = {}
        self._origin_s = 0.0
        self._last_s = 0.0
        self.recorded = 0

    def record(self, time_s: float, file_id: int) -> None:
        """Ingest one observed access (times must be non-decreasing)."""
        if time_s < self._last_s:
            raise ValueError(
                f"accesses must arrive in time order: {time_s} < {self._last_s}"
            )
        self._last_s = time_s
        exponent = (time_s - self._origin_s) / HALFLIFE_S
        if exponent > _EMA_RESCALE_HALFLIVES:
            factor = 2.0 ** (-exponent)
            for fid in list(self._scores):
                self._scores[fid] *= factor
            self._origin_s = time_s
            exponent = 0.0
        self._scores[file_id] = self._scores.get(file_id, 0.0) + 2.0**exponent
        self.recorded += 1

    def estimate(self, file_id: int) -> float:
        """Decayed score of *file_id* as of the last recorded access."""
        score = self._scores.get(file_id, 0.0)
        decay = 2.0 ** ((self._origin_s - self._last_s) / HALFLIFE_S)
        return score * decay

    def counts(self) -> Dict[int, float]:
        """Decayed scores per observed file (ranking weights)."""
        return {fid: self.estimate(fid) for fid in sorted(self._scores)}

    def ranking(self, catalog: Optional[Sequence[int]] = None) -> List[int]:
        return ranked(self._scores, catalog)


class CountMinSketch:
    """A Count-Min Sketch with conservative update and aging.

    ``depth`` rows of ``width`` counters; each key hashes to one cell
    per row via a fixed multiply-shift hash (odd multipliers from
    SHA-256 of the row index -- no RNG, no per-run salt).  Estimates
    are upper bounds: ``estimate(k) >= true count`` always, and
    overshoot is bounded by ``e/width * total`` per the standard
    analysis.  :meth:`age` halves every counter, giving the sketch the
    same drift-tracking decay as the exact estimator.
    """

    _HASH_BITS = 64

    def __init__(self, width: int = 512, depth: int = 4) -> None:
        if width < 1 or depth < 1:
            raise ValueError(f"need width/depth >= 1, got {width}x{depth}")
        self.width = width
        self.depth = depth
        self._multipliers = tuple(self._multiplier(row) for row in range(depth))
        self._cells: List[List[float]] = [[0.0] * width for _ in range(depth)]
        self.total = 0.0

    @staticmethod
    def _multiplier(row: int) -> int:
        digest = hashlib.sha256(f"cms-row-{row}".encode()).digest()
        return int.from_bytes(digest[:8], "big") | 1  # odd => full period

    def _cell_indices(self, key: int) -> Tuple[int, ...]:
        mask = 2**self._HASH_BITS - 1
        masked = key & mask
        # High 32 bits of the 64-bit product, then fold to the row width
        # (the low product bits are the weak ones in multiply hashing).
        return tuple(
            (((mult * masked) & mask) >> 32) % self.width
            for mult in self._multipliers
        )

    def update(self, key: int) -> float:
        """Count one occurrence (conservative update) and return the new
        estimate."""
        indices = self._cell_indices(key)
        current = min(
            self._cells[row][idx] for row, idx in enumerate(indices)
        )
        target = current + 1.0
        for row, idx in enumerate(indices):
            if self._cells[row][idx] < target:
                self._cells[row][idx] = target
        self.total += 1.0
        return target

    def estimate(self, key: int) -> float:
        """Estimated count (never an undercount)."""
        return min(
            self._cells[row][idx]
            for row, idx in enumerate(self._cell_indices(key))
        )

    def age(self, factor: float = 0.5) -> None:
        """Decay every counter by *factor* (popularity-drift aging)."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"factor must be in [0, 1], got {factor!r}")
        for row in self._cells:
            for idx in range(self.width):
                row[idx] *= factor
        self.total *= factor


class CountMinEstimator:
    """Count-Min Sketch + a bounded decaying top-set.

    The sketch answers "how often was this file accessed (roughly)?" in
    O(1) memory per counter; the top-set keeps the
    :data:`TOP_SET_CAPACITY` highest-estimate files exactly, which is
    all the ranking protocol needs for prefetch-sized K.  Every
    :data:`HALFLIFE_S` of stream time both structures are halved, so a
    file that stops being accessed decays out of the top-set and
    drifted-onto files displace it.

    Ranking semantics match :class:`EMAEstimator`: top-set files by
    estimate desc (ties: lower id), then the rest of the catalog
    ascending.  Files observed but evicted from the top-set fall back
    into the catalog tail -- the approximation the sketch buys memory
    with.
    """

    def __init__(self) -> None:
        self.sketch = CountMinSketch()
        self._top: Dict[int, float] = {}
        self._next_age_s: Optional[float] = None
        self._last_s = 0.0
        self.recorded = 0

    def record(self, time_s: float, file_id: int) -> None:
        """Ingest one observed access (times must be non-decreasing)."""
        if time_s < self._last_s:
            raise ValueError(
                f"accesses must arrive in time order: {time_s} < {self._last_s}"
            )
        self._last_s = time_s
        if self._next_age_s is None:
            self._next_age_s = time_s + HALFLIFE_S
        while time_s >= self._next_age_s:
            self.sketch.age(0.5)
            for fid in list(self._top):
                self._top[fid] *= 0.5
            self._next_age_s += HALFLIFE_S
        estimate = self.sketch.update(file_id)
        if file_id in self._top or len(self._top) < TOP_SET_CAPACITY:
            self._top[file_id] = estimate
        else:
            # Evict the weakest candidate (ties: higher id goes first so
            # the surviving set is deterministic) if this file beats it.
            weakest = min(self._top, key=lambda fid: (self._top[fid], -fid))
            if estimate > self._top[weakest]:
                del self._top[weakest]
                self._top[file_id] = estimate
        self.recorded += 1

    def estimate(self, file_id: int) -> float:
        return self.sketch.estimate(file_id)

    def counts(self) -> Dict[int, float]:
        """Current top-set estimates (ranking weights)."""
        return {fid: self._top[fid] for fid in sorted(self._top)}

    def ranking(self, catalog: Optional[Sequence[int]] = None) -> List[int]:
        return ranked(self._top, catalog)


#: Either streaming estimator (both satisfy PopularitySource).
OnlineEstimator = Union[EMAEstimator, CountMinEstimator]

#: Relative-error guard used by tests: with width w, overshoot on a
#: stream of N updates is < e/w * N with probability 1 - exp(-depth).
CMS_EPSILON_FACTOR = math.e


def build_estimator(config: EEVFSConfig) -> OnlineEstimator:
    """Construct the configured streaming estimator (at its own defaults)."""
    if config.online_estimator == "cms":
        return CountMinEstimator()
    return EMAEstimator()
