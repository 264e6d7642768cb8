"""Buffer-disk write buffering (§III-C, last paragraph).

"If the buffer disk has any available space, the free space should be
used as a write buffer area for the other data disks contained in the
storage node."  Writes staged on the buffer disk land sequentially (it
is a log disk) and, crucially, do not wake a sleeping data disk; dirty
data is destaged later when the target disk is active anyway.

This class is pure bookkeeping -- the actual I/O is issued by the
storage node against the buffer :class:`~repro.disk.drive.SimDisk`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class WriteBuffer:
    """Accounting for dirty (buffered, not yet destaged) write data."""

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes!r}")
        self.capacity_bytes = capacity_bytes
        self._dirty: Dict[int, int] = {}
        self._staged_at: Dict[int, float] = {}
        self.writes_destaged = 0

    @property
    def dirty_bytes(self) -> int:
        """Bytes currently staged and not yet destaged."""
        return sum(self._dirty.values())

    @property
    def dirty_files(self) -> List[int]:
        """Files with staged data (sorted)."""
        return sorted(self._dirty)

    def free_bytes(self) -> Optional[int]:
        """Remaining capacity (None = unbounded)."""
        if self.capacity_bytes is None:
            return None
        return self.capacity_bytes - self.dirty_bytes

    def can_stage(self, size_bytes: int) -> bool:
        """Whether a write of *size_bytes* fits right now."""
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes!r}")
        free = self.free_bytes()
        return free is None or size_bytes <= free

    def stage(self, file_id: int, size_bytes: int, time_s: float = 0.0) -> None:
        """Record a write staged to the buffer disk at *time_s*.

        Re-writing an already-dirty file replaces the staged data (log
        semantics: only the newest version must eventually destage) and
        refreshes its staging time.
        """
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes!r}")
        delta = size_bytes - self._dirty.get(file_id, 0)
        if delta > 0 and not self.can_stage(delta):
            raise ValueError(f"write of {size_bytes} bytes does not fit")
        self._dirty[file_id] = size_bytes
        self._staged_at[file_id] = float(time_s)

    def aged_files(self, now_s: float, max_age_s: float) -> List[int]:
        """Dirty files staged more than *max_age_s* ago (sorted by age)."""
        if max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s!r}")
        aged = [
            (staged, fid)
            for fid, staged in self._staged_at.items()
            if fid in self._dirty and now_s - staged > max_age_s
        ]
        return [fid for _, fid in sorted(aged)]

    def destage(self, file_id: int) -> int:
        """Mark a file's staged data as written back; returns its size."""
        try:
            size = self._dirty.pop(file_id)
        except KeyError:
            raise KeyError(f"file {file_id} has no staged data") from None
        self._staged_at.pop(file_id, None)
        self.writes_destaged += 1
        return size

    def destage_plan(self) -> List[Tuple[int, int]]:
        """All (file_id, size) pairs awaiting destage (sorted by id)."""
        return sorted(self._dirty.items())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WriteBuffer dirty={self.dirty_bytes}B files={len(self._dirty)}>"
