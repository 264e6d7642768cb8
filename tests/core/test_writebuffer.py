"""Unit tests for buffer-disk write buffering (§III-C)."""

import pytest

from repro.core.writebuffer import WriteBuffer


class TestStaging:
    def test_stage_and_account(self):
        wb = WriteBuffer()
        wb.stage(1, 100)
        assert wb.dirty_bytes == 100
        assert wb.dirty_files == [1]

    def test_restage_replaces_not_accumulates(self):
        """Log semantics: only the newest version must destage."""
        wb = WriteBuffer()
        wb.stage(1, 100)
        wb.stage(1, 60)
        assert wb.dirty_bytes == 60
        assert wb.dirty_files == [1]

    def test_capacity_enforced(self):
        wb = WriteBuffer(capacity_bytes=150)
        wb.stage(1, 100)
        assert not wb.can_stage(100)
        assert wb.can_stage(50)
        with pytest.raises(ValueError):
            wb.stage(2, 100)

    def test_restage_fits_when_replacing_larger(self):
        wb = WriteBuffer(capacity_bytes=100)
        wb.stage(1, 100)
        wb.stage(1, 80)  # replacement shrinks usage; must be allowed
        assert wb.dirty_bytes == 80

    def test_unbounded(self):
        wb = WriteBuffer()
        assert wb.free_bytes() is None
        assert wb.can_stage(10**15)

    def test_validation(self):
        with pytest.raises(ValueError):
            WriteBuffer(capacity_bytes=-1)
        with pytest.raises(ValueError):
            WriteBuffer().can_stage(-1)


class TestDestage:
    def test_destage_returns_size(self):
        wb = WriteBuffer()
        wb.stage(1, 100)
        assert wb.destage(1) == 100
        assert wb.dirty_bytes == 0
        assert wb.writes_destaged == 1

    def test_destage_unknown_raises(self):
        with pytest.raises(KeyError):
            WriteBuffer().destage(5)

    def test_destage_plan_sorted(self):
        wb = WriteBuffer()
        wb.stage(5, 50)
        wb.stage(2, 20)
        assert wb.destage_plan() == [(2, 20), (5, 50)]

    def test_destage_frees_capacity(self):
        wb = WriteBuffer(capacity_bytes=100)
        wb.stage(1, 100)
        wb.destage(1)
        assert wb.can_stage(100)
