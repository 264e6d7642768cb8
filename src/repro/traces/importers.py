"""Importer for the MSR Cambridge block-trace format.

EEVFS operates on whole files, but most public storage traces are
block-level.  The importer parses MSR Cambridge traces (SNIA IOTTA: CSV
records ``Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime``
with Windows FILETIME timestamps, 100 ns ticks since 1601) and lifts
block accesses to file accesses by tiling each device's address space
into fixed-size *extents* (one extent = one "file").

The resulting :class:`~repro.traces.model.Trace` preserves the access
*pattern* -- ordering, inter-arrival structure, popularity skew -- which
is what EEVFS's placement/prefetch policies consume.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, TextIO, Tuple, Union

from repro.traces.model import FileSpec, Trace

MB = 1024 * 1024

#: Windows FILETIME ticks per second (MSR timestamps).
_FILETIME_TICKS_PER_S = 10_000_000


def _open(source: Union[str, Path, TextIO]):
    if isinstance(source, (str, Path)):
        return open(source, "r", newline=""), True
    return source, False


def _extents_to_trace(
    events: List[Tuple[float, Tuple, bool]],
    extent_bytes: int,
    generator: str,
) -> Trace:
    """Turn (time, extent-key, is_write) events into a file-level trace.

    Extents are numbered by first appearance, times shifted to start at
    zero, and every extent becomes a file of *extent_bytes*.
    """
    if not events:
        raise ValueError("trace contains no records")
    events.sort(key=lambda e: e[0])
    t0 = events[0][0]
    file_of: Dict[Tuple, int] = {}
    file_ids = [file_of.setdefault(key, len(file_of)) for _, key, _ in events]
    files = [FileSpec(file_id=i, size_bytes=extent_bytes) for i in range(len(file_of))]
    return Trace(
        files,
        meta={
            "generator": generator,
            "extent_bytes": extent_bytes,
            "n_extents": len(file_of),
        },
        times=[time_s - t0 for time_s, _, _ in events],
        file_ids=file_ids,
        writes=[is_write for _, _, is_write in events],
    )


def read_msr_trace(
    source: Union[str, Path, TextIO],
    extent_bytes: int = 10 * MB,
) -> Trace:
    """Import an MSR-Cambridge-format CSV block trace."""
    if extent_bytes <= 0:
        raise ValueError(f"extent_bytes must be > 0, got {extent_bytes!r}")
    handle, owned = _open(source)
    try:
        events: List[Tuple[float, Tuple, bool]] = []
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 6:
                raise ValueError(f"line {lineno}: expected >= 6 fields, got {len(row)}")
            try:
                ticks = int(row[0])
                hostname = row[1].strip()
                disk = int(row[2])
                kind = row[3].strip().lower()
                offset = int(row[4])
                # row[5] is the transfer size; extent granularity absorbs it.
                int(row[5])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed record {row!r}") from exc
            if kind not in ("read", "write"):
                raise ValueError(f"line {lineno}: unknown op {row[3]!r}")
            time_s = ticks / _FILETIME_TICKS_PER_S
            key = (hostname, disk, offset // extent_bytes)
            events.append((time_s, key, kind == "write"))
        return _extents_to_trace(events, extent_bytes, "msr-import")
    finally:
        if owned:
            handle.close()
