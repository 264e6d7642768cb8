"""ASCII bar charts for terminal-rendered figures.

No plotting dependency ships offline, so the CLI draws its own: scaled
horizontal bars, one row per (x value, series) pair.  Good enough to see
who wins and where the knees are -- the paper's "shape" at a glance.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

#: Glyph per series, cycled.
_GLYPHS = "#*o+x%"


def grouped_bar_chart(
    labels: Sequence[object],
    series: Mapping[str, Sequence[float]],
    width: int = 50,
    title: Optional[str] = None,
) -> str:
    """Grouped horizontal bars: for each label, one bar per series.

    Bars scale to the global maximum; negative values are clamped to an
    empty bar with the raw number still printed.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width!r}")
    if not series:
        raise ValueError("need at least one series")
    for name, column in series.items():
        if len(column) != len(labels):
            raise ValueError(
                f"series {name!r} has {len(column)} values for {len(labels)} labels"
            )
    peak = max((max(col) for col in series.values()), default=0.0)
    label_w = max((len(str(l)) for l in labels), default=0)
    name_w = max(len(name) for name in series)

    lines = []
    if title:
        lines.append(title)
    for i, label in enumerate(labels):
        for j, (name, column) in enumerate(series.items()):
            value = column[i]
            filled = 0
            if peak > 0 and value > 0:
                filled = max(1, round(width * value / peak))
            bar = _GLYPHS[j % len(_GLYPHS)] * filled
            prefix = str(label) if j == 0 else ""
            lines.append(
                f"{prefix:>{label_w}} {name:<{name_w}} |{bar:<{width}}| "
                f"{value:,.4g}"
            )
        if len(series) > 1 and i < len(labels) - 1:
            lines.append("")
    return "\n".join(lines)


def panel_chart(panel, series_names: Optional[Sequence[str]] = None) -> str:
    """Chart a :class:`repro.experiments.figures.Panel`, 40 columns wide."""
    names = list(series_names) if series_names else list(panel.series)
    series = {name: panel.series[name] for name in names}
    return grouped_bar_chart(
        panel.x_values, series, width=40, title=f"[{panel.x_label}]"
    )
