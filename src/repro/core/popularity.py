"""Popularity estimation from the access log (§IV-A, step 2).

The storage server "gets popularity information from a log of file access
patterns ... and bases the file popularity on information gathered from
traces".  :class:`WindowEstimator` keeps that log and ranks the files by
their recent accesses.

:class:`PopularitySource` is the protocol every replanning source obeys:
the oracle :class:`WindowEstimator` (popularity from a sliding window
over the live log) and the streaming estimators in :mod:`repro.online`
(popularity from the observed request stream only) are interchangeable
wherever replanning needs a total order over files.  :func:`ranked` is
the one ranking rule every source applies to its scores.

Oracle setup ranks once and needs no source: the storage server applies
:func:`ranked` to the access counts of the history trace's file-id
column and keeps no log of it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from typing import Callable, List, Mapping, Optional, Protocol, runtime_checkable, Sequence


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

    The contract shared by :class:`WindowEstimator` and the streaming
    estimators in :mod:`repro.online.estimators`:

    * ``record`` ingests one access (a no-op cost-wise: O(1) amortised);
    * ``recorded`` counts the accesses ingested so far;
    * ``ranking`` returns a *total order* over the catalog when one is
      given -- observed files first, most popular first, deterministic
      tie-break -- so placement can place every file.
    """

    @property
    def recorded(self) -> int: ...

    def record(self, time_s: float, file_id: int) -> None: ...

    def ranking(self, catalog: Optional[Sequence[int]] = None) -> List[int]: ...


class WindowEstimator:
    """Popularity over a sliding window of the live access log.

    §IV: "The implementation uses an append-only log of requests to keep
    track of file access patterns, which assists the storage server in
    determining the needs for prefetching."  The log is record-only and
    appended in time order as requests reach the storage server; times
    and file ids are two parallel typed arrays, 16 bytes an entry.

    Only the accesses of the last *window_s* seconds before ``clock()``
    count.  This is the source oracle-mode replanning ranks by
    (``EEVFSConfig.popularity_window_s``): the storage server records
    every routed request, and each replan epoch ranks the recent ones.
    """

    def __init__(self, window_s: float, clock: Callable[[], float]) -> None:
        self.window_s = window_s
        self.clock = clock
        self._times = array("d")
        self._file_ids = array("q")

    @property
    def recorded(self) -> int:
        """Accesses logged so far."""
        return len(self._times)

    def record(self, time_s: float, file_id: int) -> None:
        """Append one observed access."""
        if self._times and time_s < self._times[-1]:
            raise ValueError(
                f"access log must be appended in time order "
                f"({time_s!r} < {self._times[-1]!r})"
            )
        if file_id < 0:
            raise ValueError(f"file_id must be >= 0, got {file_id!r}")
        self._times.append(float(time_s))
        self._file_ids.append(int(file_id))

    def counts(self) -> Counter:
        """Access count per file inside the window."""
        since = self.clock() - self.window_s
        return Counter(self._file_ids[bisect_left(self._times, since) :])

    def ranking(self, catalog: Optional[Sequence[int]] = None) -> List[int]:
        """Descending-popularity file ids (see :func:`ranked`)."""
        return ranked(self.counts(), catalog)
