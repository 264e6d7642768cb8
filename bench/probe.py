"""Host-speed probe: normalises host times against machine-wide drift.

On a shared host the same code can run 30-60 % slower from one minute to
the next.  The probe is a fixed pure-Python mini event loop (heapq,
generators, dict updates: the operations the simulator's engine spends
its time on) that takes ~0.25 s.  It runs immediately before and after
every timed region, and the region's time is rescaled to what it would
have been on a host where the probe takes :data:`P0_S`::

    normalised = wall * P0_S / mean(probe_before, probe_after)

Drift that slows the host slows the probe by the same factor and
cancels.  The probe is part of the benchmark, not of the program under
test, so it stays fixed across the commits being compared.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Iterator, List, Tuple

#: Events the probe loop dispatches.
PROBE_EVENTS = 400_000
#: Reference probe time: the median probe time on the calibration host
#: (2-CPU x86-64 container, CPython 3.11).  It only sets the scale of
#: normalised times, so that they read close to raw seconds there.
P0_S = 0.25


def _probe_loop(n_events: int) -> int:
    counts: Dict[int, int] = {}

    def proc(pid: int, period: float) -> Iterator[float]:
        t = 0.0
        while True:
            counts[pid] = counts.get(pid, 0) + 1
            t += period
            yield t

    procs = [proc(pid, 0.25 + (pid % 7) * 0.125) for pid in range(64)]
    heap: List[Tuple[float, int]] = []
    for pid, gen in enumerate(procs):
        heapq.heappush(heap, (next(gen), pid))
    for _ in range(n_events):
        _, pid = heapq.heappop(heap)
        heapq.heappush(heap, (next(procs[pid]), pid))
    return sum(counts.values())


def probe() -> float:
    """Run the probe once; return its wall time in seconds."""
    start = time.perf_counter()
    _probe_loop(PROBE_EVENTS)
    return time.perf_counter() - start


def normalise(wall_s: float, before_s: float, after_s: float, p0_s: float = P0_S) -> float:
    """Rescale *wall_s* by the probe times bracketing it."""
    return wall_s * p0_s / ((before_s + after_s) / 2.0)


class ProbeChain:
    """Probes between consecutive timed regions, each shared by two regions.

    The constructor runs the first probe; :meth:`factor` runs the next one
    and returns the factor that normalises the region timed in between.
    """

    def __init__(self) -> None:
        self.samples: List[float] = [probe()]

    def factor(self) -> float:
        before = self.samples[-1]
        self.samples.append(probe())
        return normalise(1.0, before, self.samples[-1])
