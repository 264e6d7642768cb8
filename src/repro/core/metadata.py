"""Distributed metadata management (§III-A, §IV-D).

The burden is split exactly as the paper prescribes:

* :class:`ServerMetadata` knows file -> storage node and file size --
  nothing about individual disks ("The storage server is unaware of the
  individual disks in each storage node").
* :class:`NodeMetadata` knows file -> local data disk, which files have
  buffer-disk copies, and buffer space accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass(frozen=True, slots=True)
class ServerFileEntry:
    """What the storage server tracks per file: location hint and size."""

    file_id: int
    node: str
    size_bytes: int


class ServerMetadata:
    """The storage server's (deliberately thin) metadata map.

    The replication extension adds two thin layers on top of the
    file -> primary-node map: the *replica map* (which other nodes hold a
    copy) and the *liveness view* (which nodes the membership service
    currently believes are up).  Both stay node-granular -- the server
    remains unaware of individual disks (§IV-D).
    """

    def __init__(self) -> None:
        self._files: Dict[int, ServerFileEntry] = {}
        #: file -> additional holder nodes, in placement/repair order.
        self._replicas: Dict[int, List[str]] = {}
        #: Nodes currently marked down by the (zero-latency) detector.
        self._down: Set[str] = set()
        #: file -> live holder list, memoised per request-plane lookup.
        #: Invalidated wholesale on membership changes and per file on
        #: replica-set changes; entries are treated as immutable.
        self._live_cache: Dict[int, List[str]] = {}

    def register(self, file_id: int, node: str, size_bytes: int) -> None:
        """Record a file's node placement; re-registration is an error."""
        if file_id in self._files:
            raise ValueError(f"file {file_id} already registered")
        if not node:
            raise ValueError("node name must be non-empty")
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes!r}")
        self._files[file_id] = ServerFileEntry(file_id, node, size_bytes)

    def lookup(self, file_id: int) -> ServerFileEntry:
        """Node location + size for a file; KeyError if unknown."""
        try:
            return self._files[file_id]
        except KeyError:
            raise KeyError(f"unknown file: {file_id}") from None

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._files

    def __len__(self) -> int:
        return len(self._files)

    def bytes_on(self, node: str) -> int:
        """Total bytes held by *node*, primaries and replicas alike
        (load-balance and repair-target diagnostics)."""
        return sum(
            e.size_bytes
            for e in self._files.values()
            if e.node == node or node in self._replicas.get(e.file_id, ())
        )

    # -- replicas (replication extension) -----------------------------------------

    def add_replica(self, file_id: int, node: str) -> None:
        """Record that *node* holds a copy of *file_id*."""
        entry = self.lookup(file_id)
        if not node:
            raise ValueError("node name must be non-empty")
        holders = self._replicas.setdefault(file_id, [])
        if node == entry.node or node in holders:
            raise ValueError(f"node {node!r} already holds file {file_id}")
        holders.append(node)
        self._live_cache.pop(file_id, None)

    def holders(self, file_id: int) -> List[str]:
        """All nodes holding the file, primary first."""
        entry = self.lookup(file_id)
        return [entry.node, *self._replicas.get(file_id, ())]

    def live_holders(self, file_id: int) -> List[str]:
        """Holders currently believed up, primary (if live) first.

        Hot path: the server consults this for every forwarded request,
        so the computed list is cached until membership or the file's
        replica set changes.  Callers must not mutate the result.
        """
        cached = self._live_cache.get(file_id)
        if cached is not None:
            return cached
        live = [n for n in self.holders(file_id) if n not in self._down]
        self._live_cache[file_id] = live
        return live

    def under_replicated(self, factor: int) -> List[int]:
        """Files with fewer than *factor* live holders, sorted by id."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor!r}")
        return sorted(
            file_id
            for file_id in self._files
            if len(self.live_holders(file_id)) < factor
        )

    def snapshot(self) -> List[Tuple[int, str, int, Tuple[str, ...]]]:
        """Deterministic dump: ``(file_id, node, size, replicas)`` by id.

        Used to seed the sharded metadata plane from setup output; sorted
        so the copy order never depends on registration history.
        """
        return [
            (
                entry.file_id,
                entry.node,
                entry.size_bytes,
                tuple(self._replicas.get(entry.file_id, ())),
            )
            for entry in sorted(self._files.values(), key=lambda e: e.file_id)
        ]

    # -- node liveness --------------------------------------------------------------

    def mark_node_down(self, node: str) -> None:
        """Membership update: *node* is unreachable; route around it."""
        self._down.add(node)
        self._live_cache.clear()

    def mark_node_up(self, node: str) -> None:
        """Membership update: *node* is back; its data is usable again."""
        self._down.discard(node)
        self._live_cache.clear()

    def is_live(self, node: str) -> bool:
        return node not in self._down

    def down_nodes(self) -> List[str]:
        """Nodes currently marked down, sorted."""
        return sorted(self._down)


class NodeMetadata:
    """A storage node's local metadata: disk placement + buffer copies."""

    def __init__(
        self,
        n_data_disks: int,
        buffer_capacity_bytes: Optional[int] = None,
        stripe_width: int = 1,
    ) -> None:
        if n_data_disks < 1:
            raise ValueError(f"need at least one data disk, got {n_data_disks!r}")
        if buffer_capacity_bytes is not None and buffer_capacity_bytes < 0:
            raise ValueError("buffer_capacity_bytes must be >= 0")
        if not 1 <= stripe_width <= n_data_disks:
            raise ValueError(
                f"stripe_width must be in [1, {n_data_disks}], got {stripe_width!r}"
            )
        self.n_data_disks = n_data_disks
        self.buffer_capacity_bytes = buffer_capacity_bytes
        #: §VII extension: files are split across this many consecutive
        #: data disks (1 = the paper's whole-file placement).
        self.stripe_width = stripe_width
        self._disk_of: Dict[int, int] = {}
        self._size_of: Dict[int, int] = {}
        self._prefetched: Set[int] = set()
        self._buffer_used = 0
        self._next_disk = 0

    # -- creation / placement ---------------------------------------------------

    def create(self, file_id: int, size_bytes: int, disk: Optional[int] = None) -> int:
        """Place a new file on a local data disk.

        Default: round-robin (§III-B) -- because creation requests arrive
        in descending popularity order, this spreads the hot files evenly
        across the node's disks.  An explicit *disk* overrides (used by
        centralised layouts like the PDC baseline).

        Returns the data-disk index chosen.
        """
        if file_id in self._disk_of:
            raise ValueError(f"file {file_id} already exists on this node")
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes!r}")
        if disk is None:
            disk = self._next_disk
            self._next_disk = (self._next_disk + 1) % self.n_data_disks
        elif not 0 <= disk < self.n_data_disks:
            raise ValueError(f"disk {disk} outside [0, {self.n_data_disks})")
        self._disk_of[file_id] = disk
        self._size_of[file_id] = size_bytes
        return disk

    def disk_of(self, file_id: int) -> int:
        """Index of the (primary) data disk holding a file."""
        try:
            return self._disk_of[file_id]
        except KeyError:
            raise KeyError(f"file {file_id} not on this node") from None

    def stripe_disks(self, file_id: int) -> List[int]:
        """All data disks holding stripes of a file.

        With ``stripe_width == 1`` this is just ``[disk_of(file_id)]``;
        wider stripes occupy consecutive disks (mod the array size)
        starting at the primary.
        """
        primary = self.disk_of(file_id)
        return [
            (primary + offset) % self.n_data_disks
            for offset in range(self.stripe_width)
        ]

    def stripe_size_bytes(self, file_id: int) -> int:
        """Bytes each stripe disk must transfer for one file access."""
        return -(-self.size_of(file_id) // self.stripe_width)  # ceil

    def size_of(self, file_id: int) -> int:
        """Size of a local file."""
        try:
            return self._size_of[file_id]
        except KeyError:
            raise KeyError(f"file {file_id} not on this node") from None

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._disk_of

    def files(self) -> List[int]:
        """All local file ids, sorted."""
        return sorted(self._disk_of)

    # -- buffer-disk copies --------------------------------------------------------

    def buffer_free_bytes(self) -> Optional[int]:
        """Free buffer space (None = unbounded)."""
        if self.buffer_capacity_bytes is None:
            return None
        return self.buffer_capacity_bytes - self._buffer_used

    def can_prefetch(self, file_id: int) -> bool:
        """Whether a buffer copy of the file would fit."""
        if file_id not in self._disk_of:
            return False
        if file_id in self._prefetched:
            return False
        free = self.buffer_free_bytes()
        return free is None or self._size_of[file_id] <= free

    def mark_prefetched(self, file_id: int) -> None:
        """Record a completed buffer copy."""
        if file_id not in self._disk_of:
            raise KeyError(f"file {file_id} not on this node")
        if file_id in self._prefetched:
            raise ValueError(f"file {file_id} already prefetched")
        free = self.buffer_free_bytes()
        if free is not None and self._size_of[file_id] > free:
            raise ValueError(f"file {file_id} does not fit in the buffer disk")
        self._prefetched.add(file_id)
        self._buffer_used += self._size_of[file_id]

    def unmark_prefetched(self, file_id: int) -> None:
        """Drop a buffer copy (re-prefetch eviction; metadata only)."""
        if file_id not in self._prefetched:
            raise KeyError(f"file {file_id} has no buffer copy")
        self._prefetched.discard(file_id)
        self._buffer_used -= self._size_of[file_id]

    def is_prefetched(self, file_id: int) -> bool:
        """Whether the buffer disk can serve this file."""
        return file_id in self._prefetched

    def prefetched_files(self) -> List[int]:
        """All files with buffer copies, sorted."""
        return sorted(self._prefetched)
