"""Consistent hashing of file ids onto metadata shards.

A :class:`ShardRing` places :data:`VNODES` virtual points per shard on a
64-bit hash ring; a file id is hashed onto the ring and owned by the
first shard point clockwise from it.  The mapping is a pure function of
``(n_shards, file_id)`` -- no randomness, no insertion-order
dependence -- so every component (client router, metadata servers, the
placement controller) derives the identical shard map independently, and
two same-seed runs agree byte for byte.

Consistent hashing (rather than ``file_id % n_shards``) keeps the map
stable under resharding: growing from *n* to *n+1* shards moves only the
keys that land on the new shard's points, which is what would make an
online shard-split affordable (future work; see docs/metadata-plane.md).
"""

from __future__ import annotations

import bisect
import hashlib

#: Virtual points per shard on the ring.
VNODES = 64


def stable_hash64(key: str) -> int:
    """A stable (process- and run-independent) 64-bit hash of *key*.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), so
    anything that feeds placement must come through here instead.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ShardRing:
    """A fixed ring of ``n_shards`` shards with :data:`VNODES` points each."""

    __slots__ = ("n_shards", "_points", "_owners")

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        self.n_shards = n_shards
        pairs = sorted(
            (stable_hash64(f"shard{shard}:{v}"), shard)
            for shard in range(n_shards)
            for v in range(VNODES)
        )
        self._points = [h for h, _ in pairs]
        self._owners = [shard for _, shard in pairs]

    def shard_of(self, file_id: int) -> int:
        """The shard owning *file_id* (first ring point clockwise)."""
        if self.n_shards == 1:
            return 0
        h = stable_hash64(f"file:{file_id}")
        index = bisect.bisect_right(self._points, h)
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._owners[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ShardRing shards={self.n_shards}>"
