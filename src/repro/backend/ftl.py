"""Page-mapped FTL bookkeeping: mapping, allocation, greedy GC.

Pure synchronous data structures -- no simulator dependency.  The
:class:`~repro.backend.ssd.SSDBackend` drives them from its event-loop
processes and converts the returned *plans* (per-channel page counts,
GC events) into timed channel jobs; keeping the bookkeeping out of the
event loop makes it unit-testable and keeps every decision
deterministic (plain list/dict iteration, no hashing of floats, no
randomness).

Model choices (documented in ``docs/storage-backends.md``):

* **Page granularity** is coarse (64 KiB "superpages" by default) --
  the simulator routes whole-file extents, not 4 KiB blocks, and a
  coarse page keeps the map small without changing the WA dynamics.
* **Channel striping**: physical blocks belong to channels round-robin
  (``block % n_channels``); host pages stripe across channels in write
  order.  GC is per-channel, so relocation traffic never crosses a
  channel boundary.
* **Greedy GC**: the victim is the closed block with the fewest valid
  pages (ties to the lowest block id), collected whenever a channel's
  free-block count falls below its reserve fraction.
* **Logical capacity** is a ring: when the extent map wraps, the
  overwritten extents are trimmed -- a bounded buffer tier overwrites
  its oldest content exactly like the paper's log disk reclaims space.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Physical-page sentinel for "unmapped".
UNMAPPED = -1


class FTLCounters:
    """Lifetime NAND accounting for one FTL instance, counted when pages
    actually move.

    Host pages are the backend's business: it counts a host write when
    the cache *accepts* it, so write absorption can push write
    amplification below one (see ``SSDBackend.write_amplification``).
    """

    __slots__ = (
        "nand_pages_programmed",
        "nand_pages_read",
        "pages_relocated",
        "blocks_erased",
    )

    def __init__(self) -> None:
        self.nand_pages_programmed = 0
        self.nand_pages_read = 0
        self.pages_relocated = 0
        self.blocks_erased = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FTLCounters nand={self.nand_pages_programmed} "
            f"read={self.nand_pages_read} relocated={self.pages_relocated} "
            f"erases={self.blocks_erased}>"
        )


class GCEvent:
    """One garbage-collection round on one channel: relocate the
    victim's valid pages, then erase it."""

    __slots__ = ("channel", "pages_moved", "block")

    def __init__(self, channel: int, pages_moved: int, block: int) -> None:
        self.channel = channel
        self.pages_moved = pages_moved
        self.block = block

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GCEvent ch{self.channel} block={self.block} moved={self.pages_moved}>"


class ProgramPlan:
    """What one batch of host-page writes costs the flash array."""

    __slots__ = ("programs", "gc_events")

    def __init__(self, n_channels: int) -> None:
        #: Pages programmed per channel (host data, not GC relocation).
        self.programs: List[int] = [0] * n_channels
        #: GC rounds triggered by this batch, in trigger order.
        self.gc_events: List[GCEvent] = []


class PageMappedFTL:
    """Page-mapped flash translation layer with greedy per-channel GC."""

    __slots__ = (
        "n_channels",
        "pages_per_block",
        "n_logical_pages",
        "n_blocks",
        "counters",
        "erase_counts",
        "_gc_reserve_blocks",
        "_l2p",
        "_p2l",
        "_valid",
        "_free",
        "_closed",
        "_open",
        "_fill",
        "_next_channel",
    )

    def __init__(
        self,
        n_logical_pages: int,
        pages_per_block: int,
        n_channels: int,
        overprovision: float,
        gc_free_fraction: float,
    ) -> None:
        if n_logical_pages < 1:
            raise ValueError(f"n_logical_pages must be >= 1, got {n_logical_pages!r}")
        if pages_per_block < 1:
            raise ValueError(f"pages_per_block must be >= 1, got {pages_per_block!r}")
        if n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {n_channels!r}")
        if overprovision <= 0:
            raise ValueError(f"overprovision must be > 0, got {overprovision!r}")
        if not 0 < gc_free_fraction < 0.5:
            raise ValueError(
                f"gc_free_fraction must be in (0, 0.5), got {gc_free_fraction!r}"
            )
        self.n_channels = n_channels
        self.pages_per_block = pages_per_block
        self.n_logical_pages = n_logical_pages
        logical_blocks = -(-n_logical_pages // pages_per_block)
        physical_blocks = int(logical_blocks * (1.0 + overprovision)) + 1
        # Every channel needs room to operate: an open block, a GC
        # destination, and at least one block of reserve.
        per_channel = max(-(-physical_blocks // n_channels), 3)
        self.n_blocks = per_channel * n_channels
        self.counters = FTLCounters()
        #: Per-physical-block erase count (endurance accounting).
        self.erase_counts: List[int] = [0] * self.n_blocks
        reserve = int(gc_free_fraction * per_channel)
        self._gc_reserve_blocks = max(1, reserve)
        self._l2p: List[int] = [UNMAPPED] * n_logical_pages
        self._p2l: List[int] = [UNMAPPED] * (self.n_blocks * pages_per_block)
        self._valid: List[int] = [0] * self.n_blocks
        # Blocks belong to channel (block % n_channels).  Free lists are
        # stacks kept in descending order so pop() hands out ascending
        # block ids -- deterministic and easy to read in dumps.
        self._free: List[List[int]] = [
            sorted(range(ch, self.n_blocks, n_channels), reverse=True)
            for ch in range(n_channels)
        ]
        self._closed: List[List[int]] = [[] for _ in range(n_channels)]
        self._open: List[int] = [self._free[ch].pop() for ch in range(n_channels)]
        self._fill: List[int] = [0] * n_channels
        self._next_channel = 0

    # -- observability -----------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Free (erased, unopened) blocks across all channels."""
        return sum(len(f) for f in self._free)

    @property
    def max_erase_count(self) -> int:
        return max(self.erase_counts)

    # -- host writes -------------------------------------------------------------

    def write_pages(self, logical_pages: Sequence[int]) -> ProgramPlan:
        """Accept a batch of host-page writes; return the flash cost.

        Pages stripe across channels in write order.  Any GC a channel
        needs to stay above its free reserve happens (bookkeeping-wise)
        before the page that triggered it -- before that page's old
        copy is invalidated -- and is reported in the plan so the
        backend can charge its time and energy.  A ``RuntimeError``
        (logical space over-committed) leaves the FTL unusable.
        """
        plan = ProgramPlan(self.n_channels)
        programs = plan.programs
        l2p = self._l2p
        p2l = self._p2l
        valid = self._valid
        free = self._free
        open_blocks = self._open
        fill = self._fill
        per_block = self.pages_per_block
        n_channels = self.n_channels
        reserve = self._gc_reserve_blocks
        channel = self._next_channel
        for logical in logical_pages:
            if len(free[channel]) < reserve:
                self._reclaim(channel, plan.gc_events)
            old = l2p[logical]
            if old != UNMAPPED:
                p2l[old] = UNMAPPED
                valid[old // per_block] -= 1
            block = open_blocks[channel]
            slot = fill[channel]
            physical = block * per_block + slot
            l2p[logical] = physical
            p2l[physical] = logical
            valid[block] += 1
            if slot + 1 == per_block:
                self._seal(channel)
            else:
                fill[channel] = slot + 1
            programs[channel] += 1
            channel += 1
            if channel == n_channels:
                channel = 0
        self._next_channel = channel
        self.counters.nand_pages_programmed += len(logical_pages)
        return plan

    def trim_pages(self, logical_pages: Iterable[int]) -> None:
        """Invalidate logical pages (extent overwritten or evicted)."""
        l2p = self._l2p
        p2l = self._p2l
        valid = self._valid
        per_block = self.pages_per_block
        for logical in logical_pages:
            physical = l2p[logical]
            if physical != UNMAPPED:
                l2p[logical] = UNMAPPED
                p2l[physical] = UNMAPPED
                valid[physical // per_block] -= 1

    # -- host reads --------------------------------------------------------------

    def read_pages(self, logical_pages: Sequence[int]) -> List[int]:
        """Account a batch of page reads; return per-channel page counts.

        Unmapped pages (content that predates the simulation, or was
        evicted by the ring) still cost a read; they land on their
        default stripe channel (``page % n_channels``).
        """
        n_channels = self.n_channels
        per_block = self.pages_per_block
        l2p = self._l2p
        reads = [0] * n_channels
        for logical in logical_pages:
            physical = l2p[logical]
            if physical == UNMAPPED:
                reads[logical % n_channels] += 1
            else:
                reads[physical // per_block % n_channels] += 1
        self.counters.nand_pages_read += len(logical_pages)
        return reads

    # -- internals ---------------------------------------------------------------

    def _seal(self, channel: int) -> None:
        """Close the channel's (just filled) open block and open the
        next free one."""
        self._closed[channel].append(self._open[channel])
        free = self._free[channel]
        if not free:
            raise RuntimeError(
                f"FTL channel {channel} out of free blocks "
                f"(over-committed logical space?)"
            )
        self._open[channel] = free.pop()
        self._fill[channel] = 0

    def _reclaim(self, channel: int, events: List[GCEvent]) -> None:
        """Run greedy GC until the channel is back above its reserve.

        Bounded by the closed-block count: a round whose victim is
        almost fully valid can net ~zero free blocks, and an unbounded
        loop would spin on such a channel forever.
        """
        for _ in range(len(self._closed[channel])):
            if len(self._free[channel]) >= self._gc_reserve_blocks:
                return
            event = self._collect(channel)
            if event is None:
                return  # nothing reclaimable; the open block must suffice
            events.append(event)

    def _collect(self, channel: int) -> Optional[GCEvent]:
        """One greedy GC round: relocate + erase the best victim."""
        closed = self._closed[channel]
        if not closed:
            return None
        valid = self._valid
        per_block = self.pages_per_block
        n_blocks = self.n_blocks
        # Fewest valid pages, ties to the lowest block id.
        least, victim = divmod(min([valid[b] * n_blocks + b for b in closed]), n_blocks)
        if least >= per_block:
            return None  # fully valid everywhere: erasing gains nothing
        closed.remove(victim)
        p2l = self._p2l
        base = victim * per_block
        survivors = [lp for lp in p2l[base : base + per_block] if lp != UNMAPPED]
        # Erase first so the victim itself is a relocation destination:
        # with only the reserve block free, relocating a nearly-full
        # victim must not run the channel out of open-block space.
        p2l[base : base + per_block] = [UNMAPPED] * per_block
        valid[victim] = 0
        self.erase_counts[victim] += 1
        self._free[channel].append(victim)
        # Relocate block-chunk by block-chunk into the open block(s).
        l2p = self._l2p
        moved = len(survivors)
        done = 0
        while done < moved:
            block = self._open[channel]
            slot = self._fill[channel]
            take = min(per_block - slot, moved - done)
            physical = block * per_block + slot
            chunk = survivors[done : done + take]
            p2l[physical : physical + take] = chunk
            for logical in chunk:
                l2p[logical] = physical
                physical += 1
            valid[block] += take
            done += take
            if slot + take == per_block:
                self._seal(channel)
            else:
                self._fill[channel] = slot + take
        counters = self.counters
        counters.pages_relocated += moved
        counters.nand_pages_programmed += moved
        counters.nand_pages_read += moved
        counters.blocks_erased += 1
        return GCEvent(channel, moved, victim)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PageMappedFTL {self.n_logical_pages}p/{self.n_blocks}b "
            f"ch={self.n_channels} free={self.free_blocks} {self.counters!r}>"
        )


#: Owner-array marker for a logical page no extent holds.
_FREE = object()


class ExtentMap:
    """File-extent allocator over the SSD's logical page space.

    Maps an opaque extent key (the file id from the request tag) to a
    contiguous logical page range.  Allocation is a ring over the
    logical space: wrapping overwrites (evicts) the extents in the way,
    which is how a bounded buffer tier sheds its oldest content.
    """

    __slots__ = ("n_pages", "_extents", "_owner", "_cursor")

    def __init__(self, n_pages: int) -> None:
        if n_pages < 1:
            raise ValueError(f"n_pages must be >= 1, got {n_pages!r}")
        self.n_pages = n_pages
        #: key -> (start_page, n_pages); insertion-ordered, deterministic.
        self._extents: Dict[object, Tuple[int, int]] = {}
        #: logical page -> key of the extent holding it (``_FREE`` if none).
        self._owner: List[object] = [_FREE] * n_pages
        self._cursor = 0

    def lookup(self, key: object) -> Optional[List[int]]:
        """Logical pages of an extent (None if absent/evicted)."""
        extent = self._extents.get(key)
        if extent is None:
            return None
        return self._pages(extent[0], extent[1])

    def allocate(self, key: object, n_pages: int) -> Tuple[List[int], List[int]]:
        """Place (or re-place) an extent; return its logical pages and
        the pages of every extent the ring overwrote (to be trimmed).

        A same-size rewrite reuses its existing range -- a logical
        overwrite-in-place, which the FTL turns into fresh programs and
        stale-page invalidations.
        """
        if n_pages < 1:
            raise ValueError(f"n_pages must be >= 1, got {n_pages!r}")
        if n_pages > self.n_pages:
            raise ValueError(
                f"extent of {n_pages} pages exceeds the logical space "
                f"({self.n_pages} pages)"
            )
        existing = self._extents.get(key)
        if existing is not None and existing[1] == n_pages:
            return self._pages(existing[0], n_pages), []
        evicted: List[int] = []
        if existing is not None:
            del self._extents[key]
            evicted.extend(self._pages(existing[0], existing[1]))
            self._assign(existing[0], existing[1], _FREE)
        start = self._cursor
        # Live extents lie in the ring in allocation order from the
        # cursor on, so owners in first-seen order over the new range
        # are the overlapped extents in ``_extents`` insertion order.
        overlapped = dict.fromkeys(map(self._owner.__getitem__, self._pages(start, n_pages)))
        overlapped.pop(_FREE, None)
        for other_key in overlapped:
            other_start, other_count = self._extents.pop(other_key)
            evicted.extend(self._pages(other_start, other_count))
            self._assign(other_start, other_count, _FREE)
        self._extents[key] = (start, n_pages)
        self._assign(start, n_pages, key)
        self._cursor = (start + n_pages) % self.n_pages
        return self._pages(start, n_pages), evicted

    def _pages(self, start: int, count: int) -> List[int]:
        """The ``count`` logical pages from ``start``, wrapping at the
        ring end."""
        end = start + count
        if end <= self.n_pages:
            return list(range(start, end))
        return [*range(start, self.n_pages), *range(end - self.n_pages)]

    def _assign(self, start: int, count: int, owner: object) -> None:
        """Set the owner of the ``count`` pages from ``start``."""
        end = start + count
        if end <= self.n_pages:
            self._owner[start:end] = [owner] * count
        else:
            self._owner[start:] = [owner] * (self.n_pages - start)
            self._owner[: end - self.n_pages] = [owner] * (end - self.n_pages)

    def __contains__(self, key: object) -> bool:
        return key in self._extents

    def __len__(self) -> int:
        return len(self._extents)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExtentMap {len(self._extents)} extents over {self.n_pages} pages>"
