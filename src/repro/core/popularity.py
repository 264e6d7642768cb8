"""Popularity estimation from the access log (§IV-A, step 2).

The storage server "gets popularity information from a log of file access
patterns ... and bases the file popularity on information gathered from
traces".  :class:`PopularityEstimator` wraps an :class:`~repro.traces.logio.AccessLog`
and produces the two orderings the system needs:

* the full descending-popularity ranking used for placement (§III-B), and
* the top-K selection used for prefetching (§IV-B).

:class:`PopularitySource` is the protocol both obey: the oracle
estimators here (popularity from a complete historical trace, or from a
sliding window over the live log) and the streaming estimators in
:mod:`repro.online` (popularity from the observed request stream only)
are interchangeable wherever placement, prefetch planning, or
replanning needs a total order over files.  :func:`ranked` is the one
ranking rule every source applies to its scores.

Oracle setup ranks once and needs no source: the storage server applies
:func:`ranked` to the access counts of the history trace's file-id
column and keeps no log of it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Protocol, runtime_checkable, Sequence

from repro.traces.logio import AccessLog
from repro.traces.model import Trace


def ranked(
    scores: Mapping[int, float], catalog: Optional[Sequence[int]] = None
) -> List[int]:
    """File ids by descending score (ties: lower id first).

    With *catalog* given, files without a score follow every scored file
    in ascending id order, so the ranking is a total order over the file
    system -- required by placement, which must place *every* file.
    """
    pairs = sorted([(-score, fid) for fid, score in scores.items()])
    order = [fid for _, fid in pairs]
    if catalog is None:
        return order
    unknown = scores.keys() - set(catalog)
    if unknown:
        raise ValueError(f"log contains files outside the catalog: {sorted(unknown)[:5]}")
    return order + sorted([fid for fid in catalog if fid not in scores])


@runtime_checkable
class PopularitySource(Protocol):
    """Anything that turns observed accesses into popularity orderings.

    The contract shared by the oracle :class:`PopularityEstimator` and
    the streaming estimators in :mod:`repro.online.estimators`:

    * ``record`` ingests one access (a no-op cost-wise: O(1) amortised);
    * ``recorded`` counts the accesses ingested so far;
    * ``ranking`` returns a *total order* over the catalog when one is
      given -- observed files first, most popular first, deterministic
      tie-break -- so placement can place every file;
    * ``top_k`` is the prefetch candidate list (``ranking[:k]``).
    """

    @property
    def recorded(self) -> int: ...

    def record(self, time_s: float, file_id: int) -> None: ...

    def ranking(self, catalog: Optional[Sequence[int]] = None) -> List[int]: ...

    def top_k(self, k: int, catalog: Optional[Sequence[int]] = None) -> List[int]: ...


class PopularityEstimator:
    """Derives popularity orderings from an access log.

    Every logged access counts.
    """

    def __init__(self) -> None:
        self.log = AccessLog()

    @classmethod
    def from_trace(cls, trace: Trace) -> "PopularityEstimator":
        """An estimator that has logged every request of *trace*."""
        estimator = cls()
        estimator.log.record_trace(trace)
        return estimator

    @property
    def recorded(self) -> int:
        """Accesses logged so far."""
        return len(self.log)

    def record(self, time_s: float, file_id: int) -> None:
        """Append one observed access (online operation)."""
        self.log.append(time_s, file_id)

    def counts(self) -> Dict[int, int]:
        """Access count per file (observed files only)."""
        return self.log.counts()

    def ranking(self, catalog: Optional[Sequence[int]] = None) -> List[int]:
        """Descending-popularity file ids (see :func:`ranked`)."""
        return ranked(self.counts(), catalog)

    def top_k(self, k: int, catalog: Optional[Sequence[int]] = None) -> List[int]:
        """The K most popular files (the prefetch candidate list)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k!r}")
        return self.ranking(catalog)[:k]


class WindowEstimator(PopularityEstimator):
    """Popularity over a sliding window of the live access log.

    Only the accesses of the last *window_s* seconds before ``clock()``
    count.  This is the source oracle-mode replanning ranks by
    (``EEVFSConfig.popularity_window_s``): the storage server appends
    every routed request, and each replan epoch ranks the recent ones.
    """

    def __init__(self, window_s: float, clock: Callable[[], float]) -> None:
        super().__init__()
        self.window_s = window_s
        self.clock = clock

    def counts(self) -> Dict[int, int]:
        """Access count per file inside the window."""
        return self.log.counts(since=self.clock() - self.window_s)
