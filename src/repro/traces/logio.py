"""Trace files: a plain-text format so traces can be generated once,
inspected, and replayed across experiments (:func:`write_trace` /
:func:`read_trace`).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, TextIO, Union

from repro.traces.model import FileSpec, OPS, RequestOp, Trace

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
        for time_s, file_id, write in zip(trace.times, trace.file_ids, trace.writes):
            handle.write(f"R {time_s!r} {file_id} {OPS[write].value}\n")
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
        times: List[float] = []
        file_ids: List[int] = []
        writes: List[bool] = []
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
                    time_s, file_id = float(parts[1]), int(parts[2])
                    op = RequestOp(parts[3])
                    # One chained comparison also rejects NaN and +-inf.
                    if not (0.0 <= time_s < math.inf and file_id >= 0):
                        raise ValueError("need a finite time_s >= 0 and a file_id >= 0")
                    times.append(time_s)
                    file_ids.append(file_id)
                    writes.append(op is RequestOp.WRITE)
                else:
                    raise ValueError(f"unknown record type {parts[0]!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"line {lineno}: malformed record {line!r}") from exc
        return Trace(files, meta=meta, times=times, file_ids=file_ids, writes=writes)
    finally:
        if owned:
            handle.close()

