"""The fault log: every injected (and derived) fault event, in order.

The log is the metrics layer's window into a degraded run: which
hardware failed when, what recovered, and what the injector actually did
(e.g. a node crash expands into one record per killed disk plus the
crash itself).  Two runs with the same seed and schedule produce
*identical* logs -- asserted by the test suite -- which makes the log a
cheap determinism oracle for the whole fault path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple


@dataclass(frozen=True)
class FaultRecord:
    """One logged fault event."""

    time_s: float
    kind: str
    target: str
    detail: str = ""


class FaultLog:
    """Append-only record of fault events, in injection order."""

    def __init__(self) -> None:
        self._records: List[FaultRecord] = []

    def record(self, time_s: float, kind: str, target: str, detail: str = "") -> None:
        self._records.append(
            FaultRecord(time_s=time_s, kind=kind, target=target, detail=detail)
        )

    @property
    def records(self) -> Tuple[FaultRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FaultRecord]:
        return iter(self._records)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FaultLog):
            return self._records == other._records
        return NotImplemented

    def render(self) -> str:
        """The log as an aligned table (CLI / example output)."""
        # Imported here: repro.metrics pulls in the filesystem facade,
        # which itself imports this module (cycle otherwise).
        from repro.metrics.report import format_table

        rows = [
            [f"{r.time_s:.1f}", r.kind, r.target, r.detail] for r in self._records
        ]
        return format_table(["t_s", "event", "target", "detail"], rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultLog {len(self._records)} events>"
