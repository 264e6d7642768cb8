"""Regeneration of the paper's Figs. 3-6.

Figures 3, 4 and 5 slice one shared set of
:func:`~repro.experiments.sweeps.sweep_study` results: each ``figureN``
returns a :class:`FigureResult`, the panels' series (x values plus one
column per plotted line) with a ``render()`` producing the plain-text
equivalent of the figure.  Fig. 6 is one PF/NPF pair on the
Berkeley-web-like trace (:func:`figure6_study`): :func:`figure6` is its
comparison and :func:`render_figure6` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.study import compared, group, pair, Results, Study
from repro.metrics.comparison import compare, PairedComparison
from repro.metrics.report import format_series
from repro.parallel import JobSpec, TraceSpec
from repro.traces.berkeley import BerkeleyWebWorkload

#: The point key of Fig. 6's pair in a study.
FIG6 = "fig6"

#: Panel letter -> (sweep name, x-axis label), fixed across Figs. 3/4/5.
PANELS = {
    "a": ("data_size", "Data Size (MB)"),
    "b": ("mu", "MU"),
    "c": ("inter_arrival", "Inter-arrival delay (ms)"),
    "d": ("prefetch_count", "# of files to prefetch"),
}


@dataclass
class Panel:
    """One sub-figure: x values and named series."""

    letter: str
    x_label: str
    x_values: List[object]
    series: Dict[str, List[float]]

    def render(self, title: str) -> str:
        return format_series(
            self.x_label, self.x_values, self.series, title=f"{title}({self.letter})"
        )


@dataclass
class FigureResult:
    """All panels of one figure plus provenance."""

    figure: str
    title: str
    panels: Dict[str, Panel] = field(default_factory=dict)

    def render(self) -> str:
        blocks = [f"=== {self.figure}: {self.title} ==="]
        blocks.extend(
            self.panels[letter].render(self.figure) for letter in sorted(self.panels)
        )
        return "\n\n".join(blocks)

    def panel(self, letter: str) -> Panel:
        return self.panels[letter]


def _panels_from(
    results: Results, extract, series_names: Sequence[str]
) -> Dict[str, Panel]:
    panels: Dict[str, Panel] = {}
    for letter, (sweep, x_label) in PANELS.items():
        points = compared(group(results, sweep))
        if not points:
            continue
        columns = {name: [] for name in series_names}
        for comparison in points.values():
            values = extract(comparison)
            for name, value in zip(series_names, values, strict=True):
                columns[name].append(value)
        panels[letter] = Panel(
            letter=letter, x_label=x_label, x_values=list(points), series=columns
        )
    return panels


def figure3(results: Results) -> FigureResult:
    """Fig. 3: energy consumption (J), PF vs NPF, four panels."""
    result = FigureResult(
        figure="Fig3", title="Energy consumption of the cluster storage system (J)"
    )
    result.panels = _panels_from(
        results,
        lambda c: (c.pf.energy_j, c.npf.energy_j, c.energy_savings_pct),
        ("PF_energy_J", "NPF_energy_J", "savings_pct"),
    )
    return result


def figure4(results: Results) -> FigureResult:
    """Fig. 4: total power-state transitions, four panels."""
    result = FigureResult(figure="Fig4", title="Number of power state transitions")
    result.panels = _panels_from(
        results,
        lambda c: (c.pf.transitions, c.npf.transitions),
        ("PF_transitions", "NPF_transitions"),
    )
    return result


def figure5(results: Results) -> FigureResult:
    """Fig. 5: mean file-request response time (s), PF vs NPF."""
    result = FigureResult(figure="Fig5", title="File request response time (s)")
    result.panels = _panels_from(
        results,
        lambda c: (
            c.pf.mean_response_s,
            c.npf.mean_response_s,
            c.response_penalty_pct,
        ),
        ("PF_response_s", "NPF_response_s", "penalty_pct"),
    )
    return result


def figure6_study(n_requests: int = 1000, seed: int = 0) -> Study:
    """Fig. 6's one point, :data:`FIG6`: a PF/NPF pair on the
    Berkeley-web-like trace of rng seed 2 (§VI-D setup: 10 MB data size,
    K=70, re-spaced inter-arrival)."""
    workload = BerkeleyWebWorkload(n_requests=n_requests)
    trace = TraceSpec(workload=workload, seed=2)
    return {FIG6: pair(JobSpec(trace=trace, seed=seed))}


def figure6(results: Results) -> PairedComparison:
    """Fig. 6: the PF/NPF comparison of a study's :data:`FIG6` point."""
    return compare(results[FIG6]["pf"], results[FIG6]["npf"])


def render_figure6(comparison: PairedComparison) -> str:
    """Fig. 6: energy on the Berkeley-web-like trace, PF vs NPF."""
    return format_series(
        "mode",
        ["PF", "NPF"],
        {
            "energy_J": [comparison.pf.energy_j, comparison.npf.energy_j],
            "transitions": [
                float(comparison.pf.transitions),
                float(comparison.npf.transitions),
            ],
        },
        title=(
            "=== Fig6: Berkeley web trace energy "
            f"(savings {comparison.energy_savings_pct:.1f} %) ==="
        ),
    )
