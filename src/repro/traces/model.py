"""Core workload data model: files, requests, traces."""

from __future__ import annotations

from dataclasses import dataclass, field
import enum
import math
from typing import Dict, Iterator, List, Sequence


class RequestOp(enum.Enum):
    """Operation of one trace record."""

    READ = "read"
    WRITE = "write"


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


@dataclass
class Trace:
    """A file catalog plus a time-ordered request sequence.

    The catalog covers every file in the *file system*, including files the
    trace never touches -- EEVFS places all of them (Fig. 2 step 3), and the
    untouched ones are what make small prefetch windows ineffective.
    """

    files: List[FileSpec]
    requests: List[TraceRequest]
    #: Free-form provenance (generator name, parameters, seed).
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [f.file_id for f in self.files]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate file_id in catalog")
        catalog = set(ids)
        last_t = 0.0
        for request in self.requests:
            if request.file_id not in catalog:
                raise ValueError(
                    f"request references unknown file_id {request.file_id!r}"
                )
            if request.time_s < last_t:
                raise ValueError("requests must be time-ordered")
            last_t = request.time_s
        self._by_id: Dict[int, FileSpec] = {f.file_id: f for f in self.files}

    # -- catalog access ------------------------------------------------------------

    def file(self, file_id: int) -> FileSpec:
        """Catalog lookup."""
        try:
            return self._by_id[file_id]
        except KeyError:
            raise KeyError(f"unknown file_id: {file_id!r}") from None

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def duration_s(self) -> float:
        """Timestamp of the last request (0 for an empty trace)."""
        return self.requests[-1].time_s if self.requests else 0.0

    @property
    def total_bytes(self) -> int:
        """Bytes the trace would move end to end."""
        return sum(self._by_id[r.file_id].size_bytes for r in self.requests)

    def accessed_file_ids(self) -> set[int]:
        """Distinct files the trace touches."""
        return {r.file_id for r in self.requests}

    def __iter__(self) -> Iterator[TraceRequest]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    # -- transforms ------------------------------------------------------------------

    def with_inter_arrival(self, delay_s: float) -> "Trace":
        """Re-time the trace to a constant inter-arrival spacing.

        §VI-D does exactly this to the Berkeley trace ("we modified ... the
        inter-arrival delay for requests to prevent a large amount of
        queuing").  Access order and file identity are preserved.
        """
        if delay_s < 0:
            raise ValueError(f"delay must be >= 0, got {delay_s!r}")
        requests = [
            TraceRequest(time_s=i * delay_s, file_id=r.file_id, op=r.op)
            for i, r in enumerate(self.requests)
        ]
        meta = dict(self.meta)
        meta["inter_arrival_s"] = delay_s
        return Trace(files=list(self.files), requests=requests, meta=meta)

    def with_file_size(self, size_bytes: int) -> "Trace":
        """Override every file's size (the §VI-D 10 MB normalisation)."""
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes!r}")
        files = [FileSpec(f.file_id, size_bytes) for f in self.files]
        meta = dict(self.meta)
        meta["file_size_bytes"] = size_bytes
        return Trace(files=files, requests=list(self.requests), meta=meta)

    def head(self, n: int) -> "Trace":
        """The first *n* requests (catalog unchanged)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n!r}")
        return Trace(
            files=list(self.files), requests=self.requests[:n], meta=dict(self.meta)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Trace files={self.n_files} requests={self.n_requests} "
            f"duration={self.duration_s:.1f}s>"
        )


def make_catalog(n_files: int, size_bytes: Sequence[int]) -> List[FileSpec]:
    """Build a catalog of *n_files* with the given per-file sizes."""
    if n_files <= 0:
        raise ValueError(f"n_files must be > 0, got {n_files!r}")
    if len(size_bytes) != n_files:
        raise ValueError(
            f"need {n_files} sizes, got {len(size_bytes)}"
        )
    return [FileSpec(file_id=i, size_bytes=int(size_bytes[i])) for i in range(n_files)]
