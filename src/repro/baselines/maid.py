"""MAID-style on-demand LRU cache disks (Colarelli & Grunwald [4]).

§II's contrast with EEVFS, reproduced faithfully:

* "MAID caches blocks that are stored in a LRU order" -- the cache disk
  admits whatever was just read, evicting least-recently-used entries,
  with no popularity knowledge and no look-ahead;
* the mechanism operates "at the storage-system level": no application
  hints, no predictive sleeps -- data disks rely on plain idle timers.

The comparison against EEVFS quantifies §II's claim that analysing the
look-ahead window beats reactive LRU caching for energy purposes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.core.config import EEVFSConfig
from repro.core.node import StorageNode
from repro.disk.drive import PRIORITY_BACKGROUND, RequestKind


class LRUFileCache:
    """A byte-budgeted LRU set of whole files."""

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes!r}")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[int, int]" = OrderedDict()

    @property
    def used_bytes(self) -> int:
        return sum(self._entries.values())

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def access(self, file_id: int) -> bool:
        """Record an access; returns True on hit (and refreshes recency)."""
        if file_id in self._entries:
            self._entries.move_to_end(file_id)
            return True
        return False

    def insert(self, file_id: int, size_bytes: int) -> List[int]:
        """Admit a file, evicting LRU entries to fit.  Returns evictions.

        Files larger than the whole cache are not admitted.
        """
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes!r}")
        if file_id in self._entries:
            self._entries.move_to_end(file_id)
            self._entries[file_id] = size_bytes
            return []
        if self.capacity_bytes is not None and size_bytes > self.capacity_bytes:
            return []
        evicted: List[int] = []
        while (
            self.capacity_bytes is not None
            and self.used_bytes + size_bytes > self.capacity_bytes
        ):
            victim, _ = self._entries.popitem(last=False)
            evicted.append(victim)
        self._entries[file_id] = size_bytes
        return evicted


class MAIDNode(StorageNode):
    """A storage node whose buffer disk is a reactive LRU cache disk."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cache = LRUFileCache(capacity_bytes=self.config.buffer_capacity_bytes)

    def _route_read(self, file_id: int) -> Tuple[Optional[int], str]:
        if self.cache.access(file_id):
            self.buffer_hits += 1
            return None, "buffer"
        disk_index = self.metadata.disk_of(file_id)
        self.data_disk_hits += 1
        return disk_index, f"data{disk_index}"

    def _after_read(self, file_id: int, disk_index: Optional[int]) -> None:
        """Admit the just-read file into the cache disk (asynchronously).

        The copy write goes to the cache disk only -- the data was just
        read, so no extra data-disk I/O is needed (MAID's shadow-write).
        """
        if disk_index is None:
            return  # already served from cache
        size = self.metadata.size_of(file_id)
        self.cache.insert(file_id, size)
        self.buffer_disk.submit(
            size,
            kind=RequestKind.WRITE,
            sequential=True,
            tag=("maid-copy", file_id),
            priority=PRIORITY_BACKGROUND,
        )


def maid_config(cache_bytes: int) -> EEVFSConfig:
    """MAID policy: timers only, no prefetch plan, an LRU cache of
    *cache_bytes*."""
    return EEVFSConfig(
        prefetch_enabled=False,
        power_manage_without_prefetch=True,
        use_hints=False,
        wake_ahead=False,
        buffer_capacity_bytes=cache_bytes,
    )
