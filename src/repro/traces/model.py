"""Core workload data model: files, requests, traces."""

from __future__ import annotations

from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
import enum
import math
from typing import Any, Dict, Iterator, List, Optional, overload, Sequence, Union

import numpy as np


class RequestOp(enum.Enum):
    """Operation of one trace record."""

    READ = "read"
    WRITE = "write"


#: A request's write flag (0 or 1) indexes its op.
OPS = (RequestOp.READ, RequestOp.WRITE)


@dataclass(frozen=True, slots=True)
class FileSpec:
    """One file in the workload's catalog."""

    file_id: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.file_id < 0:
            raise ValueError(f"file_id must be >= 0, got {self.file_id!r}")
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes!r}")


@dataclass(frozen=True, slots=True)
class TraceRequest:
    """One timestamped file access."""

    time_s: float
    file_id: int
    op: RequestOp = RequestOp.READ

    def __post_init__(self) -> None:
        # One chained comparison also rejects NaN and +-inf.
        if not 0.0 <= self.time_s < math.inf:
            raise ValueError(f"time_s must be finite and >= 0, got {self.time_s!r}")
        if self.file_id < 0:
            raise ValueError(f"file_id must be >= 0, got {self.file_id!r}")


class Trace:
    """A file catalog plus a time-ordered request sequence.

    The catalog covers every file in the *file system*, including files the
    trace never touches -- EEVFS places all of them (Fig. 2 step 3), and the
    untouched ones are what make small prefetch windows ineffective.

    The requests are three typed columns, 17 bytes a request: ``times``
    (``array('d')``), ``file_ids`` (``array('q')``) and ``writes``
    (``array('B')``, 1 for a write; :data:`OPS` maps the flag to the
    op).  Generators and readers pass them as ``times=``/``file_ids=``/
    ``writes=`` (no ``writes`` means all reads), and they are validated
    once.  Iterating a trace, or :attr:`requests`, yields a
    :class:`TraceRequest` built per access.
    """

    __slots__ = ("files", "meta", "times", "file_ids", "writes", "_by_id")

    def __init__(
        self,
        files: List[FileSpec],
        meta: Optional[Dict[str, object]] = None,
        *,
        times: Any = None,
        file_ids: Any = None,
        writes: Any = None,
    ) -> None:
        t = np.ascontiguousarray(() if times is None else times, dtype=np.float64)
        ids = np.ascontiguousarray(() if file_ids is None else file_ids, dtype=np.int64)
        w = (
            np.zeros(len(t), dtype=np.bool_)
            if writes is None
            else np.ascontiguousarray(writes, dtype=np.bool_)
        )
        if not len(t) == len(ids) == len(w):
            raise ValueError("request columns differ in length")
        by_id = {f.file_id: f for f in files}
        if len(by_id) != len(files):
            raise ValueError("duplicate file_id in catalog")
        bad = ~((t >= 0.0) & (t < math.inf))  # NaN fails both
        if bad.any():
            got = float(t[np.argmax(bad)])
            raise ValueError(f"time_s must be finite and >= 0, got {got!r}")
        bad = ids < 0
        if bad.any():
            raise ValueError(f"file_id must be >= 0, got {int(ids[np.argmax(bad)])!r}")
        bad = ~np.isin(ids, list(by_id))
        if bad.any():
            raise ValueError(
                f"request references unknown file_id {int(ids[np.argmax(bad)])!r}"
            )
        if (t[1:] < t[:-1]).any():
            raise ValueError("requests must be time-ordered")
        self.files = files
        #: Free-form provenance (generator name, parameters, seed).
        self.meta: Dict[str, object] = {} if meta is None else meta
        self.times: array[float] = array("d", t.tobytes())
        self.file_ids: array[int] = array("q", ids.tobytes())
        self.writes: array[int] = array("B", w.tobytes())
        self._by_id: Dict[int, FileSpec] = by_id

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def n_requests(self) -> int:
        return len(self.times)

    @property
    def duration_s(self) -> float:
        """Timestamp of the last request (0 for an empty trace)."""
        return self.times[-1] if self.times else 0.0

    @property
    def total_bytes(self) -> int:
        """Bytes the trace would move end to end."""
        return sum(self._by_id[file_id].size_bytes for file_id in self.file_ids)

    def accessed_file_ids(self) -> set[int]:
        """Distinct files the trace touches."""
        return set(self.file_ids)

    @property
    def requests(self) -> "TraceRequests":
        """The requests as a read-only sequence of records."""
        return TraceRequests(self)

    def __iter__(self) -> Iterator[TraceRequest]:
        return map(TraceRequest, self.times, self.file_ids, map(OPS.__getitem__, self.writes))

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.files, self.times, self.file_ids, self.writes, self.meta) == (
            other.files,
            other.times,
            other.file_ids,
            other.writes,
            other.meta,
        )

    __hash__ = None  # type: ignore[assignment]

    # -- transforms ------------------------------------------------------------------

    def head(self, n: int) -> "Trace":
        """The first *n* requests (catalog unchanged)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n!r}")
        return Trace(
            list(self.files),
            meta=dict(self.meta),
            times=self.times[:n],
            file_ids=self.file_ids[:n],
            writes=self.writes[:n],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Trace files={self.n_files} requests={self.n_requests} "
            f"duration={self.duration_s:.1f}s>"
        )


class TraceRequests(SequenceABC[TraceRequest]):
    """A trace's requests as a read-only sequence; each record is built on
    access from the trace's columns, so ``len`` and indexing are O(1)."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.times)

    @overload
    def __getitem__(self, index: int) -> TraceRequest: ...

    @overload
    def __getitem__(self, index: slice) -> List[TraceRequest]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TraceRequest, List[TraceRequest]]:
        trace = self._trace
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(trace.times)))]
        return TraceRequest(trace.times[index], trace.file_ids[index], OPS[trace.writes[index]])

    def __iter__(self) -> Iterator[TraceRequest]:
        return iter(self._trace)


def make_catalog(n_files: int, size_bytes: Sequence[int]) -> List[FileSpec]:
    """Build a catalog of *n_files* with the given per-file sizes."""
    if n_files <= 0:
        raise ValueError(f"n_files must be > 0, got {n_files!r}")
    if len(size_bytes) != n_files:
        raise ValueError(
            f"need {n_files} sizes, got {len(size_bytes)}"
        )
    return [FileSpec(file_id=i, size_bytes=int(size_bytes[i])) for i in range(n_files)]
