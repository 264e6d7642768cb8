"""Unit tests for the pure FTL bookkeeping (no simulator involved)."""

import pytest

from repro.backend.ftl import _FREE, ExtentMap, PageMappedFTL, UNMAPPED


def _ftl(pages=64, per_block=4, channels=2, op=0.25, gc=0.2):
    return PageMappedFTL(
        n_logical_pages=pages,
        pages_per_block=per_block,
        n_channels=channels,
        overprovision=op,
        gc_free_fraction=gc,
    )


class TestPageMappedFTL:
    def test_geometry_gives_every_channel_working_room(self):
        ftl = _ftl()
        # Per channel: one open block + at least reserve free blocks.
        assert ftl.n_blocks % ftl.n_channels == 0
        per_channel = ftl.n_blocks // ftl.n_channels
        assert per_channel >= 3

    def test_writes_stripe_round_robin_across_channels(self):
        ftl = _ftl(channels=2)
        plan = ftl.write_pages(list(range(6)))
        assert plan.programs == [3, 3]
        channels = [(ftl._l2p[lp] // ftl.pages_per_block) % ftl.n_channels for lp in range(6)]
        assert channels == [0, 1, 0, 1, 0, 1]

    def test_rewrite_invalidates_the_old_copy(self):
        ftl = _ftl()
        ftl.write_pages([0, 1, 2, 3])
        before = ftl.counters.nand_pages_programmed
        ftl.write_pages([0, 1, 2, 3])
        assert ftl.counters.nand_pages_programmed == before + 4
        # Each logical page still maps to exactly one physical page.
        mapped = [p for p in ftl._l2p if p != UNMAPPED]
        assert len(mapped) == len(set(mapped)) == 4

    def test_reads_of_unmapped_pages_land_on_the_default_stripe(self):
        ftl = _ftl(channels=2)
        assert ftl.read_pages([0, 1, 2, 3]) == [2, 2]
        assert ftl.counters.nand_pages_read == 4

    def test_reads_follow_the_mapping_after_writes(self):
        ftl = _ftl(channels=2)
        ftl.write_pages([5])  # lands on channel 0 (first write)
        assert ftl.read_pages([5]) == [1, 0]

    def test_gc_reclaims_rewrite_churn(self):
        ftl = _ftl(pages=64, per_block=4, channels=2)
        for _ in range(30):
            ftl.write_pages(list(range(32)))
        c = ftl.counters
        assert c.blocks_erased > 0
        assert c.nand_pages_programmed == 30 * 32 + c.pages_relocated
        assert ftl.max_erase_count > 0
        assert ftl.free_blocks > 0

    def test_trim_frees_without_relocation(self):
        ftl = _ftl(pages=64, per_block=4, channels=1)
        ftl.write_pages(list(range(32)))
        ftl.trim_pages(range(32))
        before = ftl.counters.pages_relocated
        # Trimmed blocks are fully invalid: the next churn erases them
        # without moving a single page.
        ftl.write_pages(list(range(32)))
        ftl.write_pages(list(range(32)))
        assert ftl.counters.pages_relocated == before
        assert ftl.counters.blocks_erased > 0

    def test_bookkeeping_is_deterministic(self):
        def churn():
            ftl = _ftl(pages=48, per_block=4, channels=3)
            log = []
            for round_no in range(20):
                plan = ftl.write_pages([(round_no * 7 + i) % 48 for i in range(16)])
                log.append(
                    (
                        tuple(plan.programs),
                        tuple((e.channel, e.block, e.pages_moved) for e in plan.gc_events),
                    )
                )
            return log, tuple(ftl.erase_counts), repr(ftl.counters)

        assert churn() == churn()

    def test_validation(self):
        with pytest.raises(ValueError):
            _ftl(pages=0)
        with pytest.raises(ValueError):
            _ftl(per_block=0)
        with pytest.raises(ValueError):
            _ftl(channels=0)
        with pytest.raises(ValueError):
            _ftl(op=0.0)
        with pytest.raises(ValueError):
            _ftl(gc=0.5)


def assert_owner_consistent(extents):
    """The per-page owner array says exactly what ``_extents`` says."""
    expected = [None] * extents.n_pages
    for key, (start, count) in extents._extents.items():
        for i in range(count):
            page = (start + i) % extents.n_pages
            assert expected[page] is None, f"page {page} owned twice"
            expected[page] = key
    assert [None if key is _FREE else key for key in extents._owner] == expected


class TestExtentMap:
    def test_same_size_rewrite_reuses_the_range(self):
        extents = ExtentMap(16)
        pages, evicted = extents.allocate("a", 4)
        again, evicted2 = extents.allocate("a", 4)
        assert pages == again == [0, 1, 2, 3]
        assert evicted == evicted2 == []

    def test_resize_relocates_and_reports_the_old_pages(self):
        extents = ExtentMap(16)
        extents.allocate("a", 4)
        pages, evicted = extents.allocate("a", 6)
        assert sorted(evicted) == [0, 1, 2, 3]
        assert pages == [4, 5, 6, 7, 8, 9]

    def test_ring_wrap_evicts_overlapped_extents(self):
        extents = ExtentMap(8)
        extents.allocate("a", 4)
        extents.allocate("b", 4)
        # The ring is full; the next allocation wraps onto "a".
        pages, evicted = extents.allocate("c", 4)
        assert pages == [0, 1, 2, 3]
        assert sorted(evicted) == [0, 1, 2, 3]
        assert "a" not in extents
        assert "b" in extents
        assert extents.lookup("a") is None

    def test_oversized_extent_is_rejected(self):
        extents = ExtentMap(8)
        with pytest.raises(ValueError):
            extents.allocate("a", 9)
        with pytest.raises(ValueError):
            extents.allocate("a", 0)

    def test_extent_straddling_the_ring_end_wraps(self):
        extents = ExtentMap(10)
        extents.allocate("a", 6)
        pages, evicted = extents.allocate("b", 6)
        assert pages == [6, 7, 8, 9, 0, 1]
        assert evicted == [0, 1, 2, 3, 4, 5]
        assert extents.lookup("b") == [6, 7, 8, 9, 0, 1]
        # A same-size rewrite keeps the wrapped range.
        assert extents.allocate("b", 6) == ([6, 7, 8, 9, 0, 1], [])
        assert_owner_consistent(extents)

    def test_one_allocation_evicts_two_extents_oldest_first(self):
        extents = ExtentMap(8)
        extents.allocate("a", 3)
        extents.allocate("b", 3)
        extents.allocate("c", 2)
        pages, evicted = extents.allocate("d", 5)
        assert pages == [0, 1, 2, 3, 4]
        assert evicted == [0, 1, 2, 3, 4, 5]
        assert "a" not in extents and "b" not in extents
        assert extents.lookup("c") == [6, 7]
        assert_owner_consistent(extents)

    def test_resize_may_overlap_its_own_old_range(self):
        extents = ExtentMap(8)
        extents.allocate("a", 4)
        extents.allocate("b", 2)
        # "a" grows to 5 pages at the cursor (6), wrapping over its own
        # old pages 0-2: only its old range is reported, once.
        pages, evicted = extents.allocate("a", 5)
        assert pages == [6, 7, 0, 1, 2]
        assert evicted == [0, 1, 2, 3]
        assert extents.lookup("b") == [4, 5]
        assert_owner_consistent(extents)
        assert extents._owner[3] is _FREE
