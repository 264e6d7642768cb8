"""Trace persistence and the append-only access log.

Two concerns live here:

* **Trace files** -- a plain-text format so traces can be generated once,
  inspected, and replayed across experiments (:func:`write_trace` /
  :func:`read_trace`).
* **The access log** -- §IV: "The implementation uses an append-only log
  of requests to keep track of file access patterns, which assists the
  storage server in determining the needs for prefetching."
  :class:`AccessLog` is that structure: record-only during operation,
  with access-count queries over any time window.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
import io
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Union

from repro.traces.model import FileSpec, RequestOp, Trace, TraceRequest

_FORMAT_VERSION = 1


def write_trace(trace: Trace, destination: Union[str, Path, TextIO]) -> None:
    """Serialise *trace* to a text file.

    Format::

        #eevfs-trace v1
        #meta key=value            (one per key; str() of the value)
        F <file_id> <size_bytes>   (catalog)
        R <time_s> <file_id> <op>  (requests, time-ordered)
    """
    owned = isinstance(destination, (str, Path))
    handle: TextIO = open(destination, "w") if owned else destination  # type: ignore[arg-type]
    try:
        handle.write(f"#eevfs-trace v{_FORMAT_VERSION}\n")
        for key in sorted(trace.meta):
            handle.write(f"#meta {key}={trace.meta[key]}\n")
        for spec in trace.files:
            handle.write(f"F {spec.file_id} {spec.size_bytes}\n")
        for request in trace.requests:
            handle.write(f"R {request.time_s!r} {request.file_id} {request.op.value}\n")
    finally:
        if owned:
            handle.close()


def read_trace(source: Union[str, Path, TextIO]) -> Trace:
    """Parse a trace written by :func:`write_trace`."""
    owned = isinstance(source, (str, Path))
    handle: TextIO = open(source, "r") if owned else source  # type: ignore[arg-type]
    try:
        header = handle.readline().strip()
        if header != f"#eevfs-trace v{_FORMAT_VERSION}":
            raise ValueError(f"not an eevfs trace file (header {header!r})")
        meta: Dict[str, object] = {}
        files: List[FileSpec] = []
        requests: List[TraceRequest] = []
        for lineno, raw in enumerate(handle, start=2):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#meta "):
                key, _, value = line[len("#meta ") :].partition("=")
                meta[key] = value
                continue
            if line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "F":
                    files.append(FileSpec(file_id=int(parts[1]), size_bytes=int(parts[2])))
                elif parts[0] == "R":
                    requests.append(
                        TraceRequest(
                            time_s=float(parts[1]),
                            file_id=int(parts[2]),
                            op=RequestOp(parts[3]),
                        )
                    )
                else:
                    raise ValueError(f"unknown record type {parts[0]!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"line {lineno}: malformed record {line!r}") from exc
        return Trace(files=files, requests=requests, meta=meta)
    finally:
        if owned:
            handle.close()


def trace_round_trip(trace: Trace) -> Trace:
    """Write + read through memory (diagnostic / test helper)."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    buffer.seek(0)
    return read_trace(buffer)


class AccessLog:
    """Append-only record of file accesses with windowed count queries.

    Appends must be time-ordered (the log is written as requests arrive at
    the storage server).  Queries never mutate the log.  Times and file ids
    are two parallel typed arrays: a whole-run log costs 16 bytes an entry.
    """

    def __init__(self) -> None:
        self._times = array("d")
        self._file_ids = array("q")

    def append(self, time_s: float, file_id: int) -> None:
        """Record one access."""
        if self._times and time_s < self._times[-1]:
            raise ValueError(
                f"access log must be appended in time order "
                f"({time_s!r} < {self._times[-1]!r})"
            )
        if file_id < 0:
            raise ValueError(f"file_id must be >= 0, got {file_id!r}")
        self._times.append(float(time_s))
        self._file_ids.append(int(file_id))

    def record_trace(self, trace: Trace) -> None:
        """Bulk-append every request of *trace* (Fig. 2 step 2 bootstrap)."""
        for request in trace.requests:
            self.append(request.time_s, request.file_id)

    def __len__(self) -> int:
        return len(self._times)

    def counts(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Counter:
        """Access counts per file over ``[since, until]`` (inclusive)."""
        lo = 0 if since is None else bisect_left(self._times, since)
        hi = len(self._times) if until is None else bisect_right(self._times, until)
        return Counter(self._file_ids[lo:hi])
