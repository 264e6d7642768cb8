"""Unit tests for the §III-C sleep threshold."""

import pytest

from repro.core.prediction import effective_threshold
from repro.disk.energy import break_even_time
from repro.disk.specs import ATA_80GB_TYPE1

SPEC = ATA_80GB_TYPE1


class TestEffectiveThreshold:
    def test_lower_bounded_by_break_even(self):
        assert effective_threshold(SPEC, 0.0) == pytest.approx(break_even_time(SPEC))

    def test_threshold_dominates_when_larger(self):
        assert effective_threshold(SPEC, 60.0) == 60.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_threshold(SPEC, -1.0)
