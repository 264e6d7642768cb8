"""Export figure/sweep data as CSV or JSON for external plotting.

The plain-text renders are for the terminal; these exporters feed
gnuplot/matplotlib/spreadsheets.  One CSV per figure panel, or one JSON
document per figure.
"""

from __future__ import annotations

import csv
from dataclasses import asdict
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.core.filesystem import canonical_json, RunResult
from repro.experiments.figures import Figure6Result, FigureResult


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


def figure6_to_dict(figure: Figure6Result) -> Dict[str, object]:
    """JSON-serialisable representation of the Fig. 6 result."""
    return {
        "figure": "Fig6",
        "pf_energy_j": figure.pf_energy_j,
        "npf_energy_j": figure.npf_energy_j,
        "savings_pct": figure.savings_pct,
        "pf_transitions": figure.comparison.pf.transitions,
        "npf_transitions": figure.comparison.npf.transitions,
        "pf_response_s": figure.comparison.pf.mean_response_s,
        "npf_response_s": figure.comparison.npf.mean_response_s,
    }


def write_figure_json(
    figure: Union[FigureResult, Figure6Result], path: Union[str, Path]
) -> Path:
    """Write one figure's data as JSON; returns the path written."""
    path = Path(path)
    data = (
        figure6_to_dict(figure)
        if isinstance(figure, Figure6Result)
        else figure_to_dict(figure)
    )
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def write_runresult_json(result: RunResult, path: Union[str, Path]) -> Path:
    """Dump a run's full measurement record plus its config to JSON."""
    path = Path(path)
    record = {**result.record(), "config": asdict(result.config)}
    path.write_text(canonical_json(record))
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
