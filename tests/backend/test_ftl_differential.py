"""Differential test: the FTL and extent map against a per-page oracle.

The oracle classes below are the straightforward per-page implementation
the production code was derived from: one method call per page for
every program, invalidate and relocation, and an all-extents scan for
ring eviction.  They live here only as a specification; ``src`` keeps a
single code path.  Random write/trim/read/allocate sequences must leave
both in the same state and produce the same plans.
"""

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.ftl import (
    ExtentMap,
    FTLCounters,
    GCEvent,
    PageMappedFTL,
    ProgramPlan,
    UNMAPPED,
)
from tests.backend.test_ftl import assert_owner_consistent


class OracleFTL:
    """Per-page reference FTL (same geometry, same decisions)."""

    def __init__(
        self,
        n_logical_pages: int,
        pages_per_block: int,
        n_channels: int,
        overprovision: float,
        gc_free_fraction: float,
    ) -> None:
        self.n_channels = n_channels
        self.pages_per_block = pages_per_block
        self.n_logical_pages = n_logical_pages
        logical_blocks = -(-n_logical_pages // pages_per_block)
        physical_blocks = int(logical_blocks * (1.0 + overprovision)) + 1
        per_channel = max(-(-physical_blocks // n_channels), 3)
        self.n_blocks = per_channel * n_channels
        self.counters = FTLCounters()
        self.erase_counts: List[int] = [0] * self.n_blocks
        reserve = int(gc_free_fraction * per_channel)
        self._gc_reserve_blocks = max(1, reserve)
        self._l2p: List[int] = [UNMAPPED] * n_logical_pages
        self._p2l: List[int] = [UNMAPPED] * (self.n_blocks * pages_per_block)
        self._valid: List[int] = [0] * self.n_blocks
        self._free: List[List[int]] = [
            sorted(range(ch, self.n_blocks, n_channels), reverse=True)
            for ch in range(n_channels)
        ]
        self._closed: List[List[int]] = [[] for _ in range(n_channels)]
        self._open: List[int] = [self._free[ch].pop() for ch in range(n_channels)]
        self._fill: List[int] = [0] * n_channels
        self._next_channel = 0

    def channel_of(self, logical_page: int) -> Optional[int]:
        physical = self._l2p[logical_page]
        if physical == UNMAPPED:
            return None
        return (physical // self.pages_per_block) % self.n_channels

    def write_pages(self, logical_pages: Sequence[int]) -> ProgramPlan:
        plan = ProgramPlan(self.n_channels)
        for logical in logical_pages:
            channel = self._next_channel
            self._next_channel = (self._next_channel + 1) % self.n_channels
            self._reclaim(channel, plan.gc_events)
            self._invalidate(logical)
            self._program(logical, channel)
            plan.programs[channel] += 1
            self.counters.nand_pages_programmed += 1
        return plan

    def trim_pages(self, logical_pages: Iterable[int]) -> None:
        for logical in logical_pages:
            self._invalidate(logical)

    def read_pages(self, logical_pages: Sequence[int]) -> List[int]:
        reads = [0] * self.n_channels
        for logical in logical_pages:
            channel = self.channel_of(logical)
            if channel is None:
                channel = logical % self.n_channels
            reads[channel] += 1
            self.counters.nand_pages_read += 1
        return reads

    def _invalidate(self, logical: int) -> None:
        physical = self._l2p[logical]
        if physical == UNMAPPED:
            return
        self._l2p[logical] = UNMAPPED
        self._p2l[physical] = UNMAPPED
        self._valid[physical // self.pages_per_block] -= 1

    def _program(self, logical: int, channel: int) -> None:
        block = self._open[channel]
        slot = self._fill[channel]
        physical = block * self.pages_per_block + slot
        self._l2p[logical] = physical
        self._p2l[physical] = logical
        self._valid[block] += 1
        self._fill[channel] = slot + 1
        if self._fill[channel] == self.pages_per_block:
            self._closed[channel].append(block)
            if not self._free[channel]:
                raise RuntimeError(f"FTL channel {channel} out of free blocks")
            self._open[channel] = self._free[channel].pop()
            self._fill[channel] = 0

    def _reclaim(self, channel: int, events: List[GCEvent]) -> None:
        for _ in range(len(self._closed[channel])):
            if len(self._free[channel]) >= self._gc_reserve_blocks:
                return
            event = self._collect(channel)
            if event is None:
                return
            events.append(event)

    def _collect(self, channel: int) -> Optional[GCEvent]:
        closed = self._closed[channel]
        if not closed:
            return None
        victim = min(closed, key=lambda b: (self._valid[b], b))
        if self._valid[victim] >= self.pages_per_block:
            return None
        closed.remove(victim)
        base = victim * self.pages_per_block
        survivors = [
            self._p2l[base + slot]
            for slot in range(self.pages_per_block)
            if self._p2l[base + slot] != UNMAPPED
        ]
        for logical in survivors:
            self._invalidate(logical)
        self._valid[victim] = 0
        self.erase_counts[victim] += 1
        self._free[channel].append(victim)
        for logical in survivors:
            self._program(logical, channel)
        moved = len(survivors)
        self.counters.pages_relocated += moved
        self.counters.nand_pages_programmed += moved
        self.counters.nand_pages_read += moved
        self.counters.blocks_erased += 1
        return GCEvent(channel, moved, victim)


class OracleExtentMap:
    """Reference ring allocator: evicts by scanning every extent."""

    def __init__(self, n_pages: int) -> None:
        self.n_pages = n_pages
        self._extents: Dict[object, Tuple[int, int]] = {}
        self._cursor = 0

    def lookup(self, key: object) -> Optional[List[int]]:
        extent = self._extents.get(key)
        if extent is None:
            return None
        start, count = extent
        return [(start + i) % self.n_pages for i in range(count)]

    def allocate(self, key: object, n_pages: int) -> Tuple[List[int], List[int]]:
        existing = self._extents.get(key)
        if existing is not None and existing[1] == n_pages:
            start, count = existing
            return [(start + i) % self.n_pages for i in range(count)], []
        evicted: List[int] = []
        if existing is not None:
            del self._extents[key]
            start, count = existing
            evicted.extend((start + i) % self.n_pages for i in range(count))
        start = self._cursor
        taken = {(start + i) % self.n_pages for i in range(n_pages)}
        for other_key in [
            k for k, (s, c) in self._extents.items()
            if any((s + i) % self.n_pages in taken for i in range(c))
        ]:
            other_start, other_count = self._extents.pop(other_key)
            evicted.extend((other_start + i) % self.n_pages for i in range(other_count))
        self._extents[key] = (start, n_pages)
        self._cursor = (start + n_pages) % self.n_pages
        return [(start + i) % self.n_pages for i in range(n_pages)], evicted


# -- comparison helpers -----------------------------------------------------------


def _plan_key(plan: ProgramPlan) -> tuple:
    return (
        tuple(plan.programs),
        tuple((e.channel, e.block, e.pages_moved) for e in plan.gc_events),
    )


def _ftl_state(ftl) -> tuple:
    c = ftl.counters
    return (
        ftl._l2p,
        ftl._p2l,
        ftl._valid,
        ftl._free,
        ftl._closed,
        ftl._open,
        ftl._fill,
        ftl._next_channel,
        ftl.erase_counts,
        (c.nand_pages_programmed, c.nand_pages_read, c.pages_relocated, c.blocks_erased),
    )


class Pair:
    """One production FTL + extent map driven in lockstep with the oracle."""

    def __init__(self, pages: int, per_block: int, channels: int, op: float, gc: float):
        args = (pages, per_block, channels, op, gc)
        self.ftl = PageMappedFTL(*args)
        self.oracle = OracleFTL(*args)
        self.extents = ExtentMap(pages)
        self.oracle_extents = OracleExtentMap(pages)
        self.evictions = 0

    def write(self, pages: List[int]) -> bool:
        """Write on both; False once both ran out of space (same error)."""
        try:
            expected = self.oracle.write_pages(pages)
        except RuntimeError:
            try:
                self.ftl.write_pages(pages)
            except RuntimeError:
                return False
            raise AssertionError("oracle ran out of space, production did not")
        assert _plan_key(self.ftl.write_pages(pages)) == _plan_key(expected)
        return True

    def destage(self, key: object, n_pages: int) -> bool:
        """The backend's destage step: allocate, trim evictions, write."""
        got = self.extents.allocate(key, n_pages)
        assert got == self.oracle_extents.allocate(key, n_pages)
        assert list(self.extents._extents.items()) == list(
            self.oracle_extents._extents.items()
        )
        assert self.extents._cursor == self.oracle_extents._cursor
        assert_owner_consistent(self.extents)
        logical, evicted = got
        if evicted:
            self.evictions += 1
            self.ftl.trim_pages(evicted)
            self.oracle.trim_pages(evicted)
        return self.write(logical)

    def step(self, op: tuple) -> bool:
        kind = op[0]
        if kind == "destage":
            if not self.destage(op[1], min(op[2], self.extents.n_pages)):
                return False
        elif kind == "write":
            if not self.write(op[1]):
                return False
        elif kind == "trim":
            self.ftl.trim_pages(op[1])
            self.oracle.trim_pages(op[1])
        else:  # read (mapped or not) + extent lookup
            assert self.ftl.read_pages(op[1]) == self.oracle.read_pages(op[1])
            key = op[2]
            assert self.extents.lookup(key) == self.oracle_extents.lookup(key)
        assert _ftl_state(self.ftl) == _ftl_state(self.oracle)
        return True


def _ops(pages: int) -> st.SearchStrategy:
    page_lists = st.lists(st.integers(0, pages - 1), max_size=2 * pages)
    keys = st.integers(0, 7)
    return st.lists(
        st.one_of(
            st.tuples(st.just("destage"), keys, st.integers(1, pages)),
            st.tuples(st.just("write"), page_lists),
            st.tuples(st.just("trim"), page_lists),
            st.tuples(st.just("read"), page_lists, keys),
        ),
        max_size=60,
    )


@st.composite
def scenarios(draw):
    pages = draw(st.integers(1, 40))
    geometry = (
        pages,
        draw(st.integers(1, 8)),  # pages per block
        draw(st.integers(1, 4)),  # channels
        draw(st.sampled_from([0.01, 0.05, 0.1, 0.3])),  # overprovision
        draw(st.sampled_from([0.05, 0.1, 0.2, 0.4])),  # GC reserve fraction
    )
    return geometry, draw(_ops(pages))


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_matches_per_page_oracle(scenario):
    geometry, ops = scenario
    pair = Pair(*geometry)
    for op in ops:
        if not pair.step(op):
            break


def test_random_churn_exercises_gc_and_the_ring_wrap():
    """Long seeded churn on tight geometries: GC and eviction both fire
    many times, and every step still matches the oracle."""
    relocated = 0
    for channels in (1, 2, 3, 4):
        for per_block in (1, 3, 8):
            rng = random.Random(12)
            pages = 32
            pair = Pair(pages, per_block, channels, 0.1, 0.2)
            for step in range(300):
                if step % 7 == 6:
                    op = ("read", [rng.randrange(pages) for _ in range(12)], rng.randrange(10))
                elif step % 11 == 10:
                    op = ("trim", [rng.randrange(pages) for _ in range(6)])
                else:
                    op = ("destage", rng.randrange(10), rng.randint(1, 9))
                assert pair.step(op)
            assert pair.ftl.counters.blocks_erased > 0
            assert pair.evictions > 0
            relocated += pair.ftl.counters.pages_relocated
    assert relocated > 0
