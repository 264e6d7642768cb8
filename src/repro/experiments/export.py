"""Export figure/sweep data as CSV or JSON for external plotting.

The plain-text renders are for the terminal; these exporters feed
gnuplot/matplotlib/spreadsheets.  One CSV per figure panel, or one JSON
document per figure.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.experiments.figures import FigureResult
from repro.metrics.comparison import PairedComparison


def figure_to_dict(figure: FigureResult) -> Dict[str, object]:
    """JSON-serialisable representation of a multi-panel figure."""
    return {
        "figure": figure.figure,
        "title": figure.title,
        "panels": {
            letter: {
                "x_label": panel.x_label,
                "x_values": list(panel.x_values),
                "series": {name: list(col) for name, col in panel.series.items()},
            }
            for letter, panel in figure.panels.items()
        },
    }


def figure6_to_dict(comparison: PairedComparison) -> Dict[str, object]:
    """JSON-serialisable representation of Fig. 6's PF/NPF pair."""
    return {
        "figure": "Fig6",
        "pf_energy_j": comparison.pf.energy_j,
        "npf_energy_j": comparison.npf.energy_j,
        "savings_pct": comparison.energy_savings_pct,
        "pf_transitions": comparison.pf.transitions,
        "npf_transitions": comparison.npf.transitions,
        "pf_response_s": comparison.pf.mean_response_s,
        "npf_response_s": comparison.npf.mean_response_s,
    }


def write_figure_json(
    figure: Union[FigureResult, PairedComparison], path: Union[str, Path]
) -> Path:
    """Write one figure's data as JSON (Fig. 6 as its pair); returns the
    path written."""
    path = Path(path)
    data = (
        figure6_to_dict(figure)
        if isinstance(figure, PairedComparison)
        else figure_to_dict(figure)
    )
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def write_figure_csv(figure: FigureResult, directory: Union[str, Path]) -> List[Path]:
    """Write one CSV per panel into *directory*; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for letter, panel in sorted(figure.panels.items()):
        path = directory / f"{figure.figure.lower()}{letter}.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            names = list(panel.series)
            writer.writerow([panel.x_label, *names])
            for i, x in enumerate(panel.x_values):
                writer.writerow([x, *(panel.series[name][i] for name in names)])
        written.append(path)
    return written
