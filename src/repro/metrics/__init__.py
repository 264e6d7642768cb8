"""Measurement and comparison utilities.

The paper evaluates three metrics (§V-C): energy consumption, number of
power-state transitions, and response time.  This package turns raw
:class:`~repro.core.filesystem.RunResult` pairs into the derived
quantities the figures report (savings %, penalty %) and renders
plain-text tables/series.
"""

from repro.metrics.breakdown import (
    breakdown_table,
    compare_breakdowns,
    energy_breakdown,
    EnergyBreakdown,
    state_time_breakdown,
)
from repro.metrics.chart import grouped_bar_chart
from repro.metrics.comparison import compare, PairedComparison
from repro.metrics.report import (
    format_series,
    format_table,
    metaplane_table,
    online_series,
    online_table,
    summary_table,
)
from repro.metrics.wear import wear_report, WearReport

__all__ = [
    "EnergyBreakdown",
    "PairedComparison",
    "WearReport",
    "breakdown_table",
    "compare",
    "compare_breakdowns",
    "energy_breakdown",
    "format_series",
    "format_table",
    "grouped_bar_chart",
    "metaplane_table",
    "online_series",
    "online_table",
    "state_time_breakdown",
    "summary_table",
    "wear_report",
]
