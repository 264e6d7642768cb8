"""Unit tests for ASCII bar charts."""

import pytest

from repro.metrics.chart import grouped_bar_chart


class TestBarChart:
    """One series: one bar per label."""

    def test_scaling_to_max(self):
        out = grouped_bar_chart(["a", "b"], {"": [10.0, 5.0]}, width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_title(self):
        out = grouped_bar_chart(["a"], {"": [1.0]}, title="My Chart")
        assert out.splitlines()[0] == "My Chart"

    def test_values_printed(self):
        out = grouped_bar_chart(["a"], {"": [1234.0]})
        assert "1,234" in out

    def test_zero_values_have_empty_bars(self):
        out = grouped_bar_chart(["a", "b"], {"": [0.0, 10.0]}, width=10)
        assert "|          |" in out.splitlines()[0]

    def test_negative_clamped_but_printed(self):
        out = grouped_bar_chart(["a"], {"": [-5.0]}, width=10)
        assert "-5" in out
        assert "#" not in out

    def test_tiny_positive_gets_at_least_one_glyph(self):
        out = grouped_bar_chart(["a", "b"], {"": [0.001, 100.0]}, width=10)
        assert out.splitlines()[0].count("#") == 1


class TestGroupedBarChart:
    def test_two_series_glyphs_differ(self):
        out = grouped_bar_chart(["x"], {"PF": [5.0], "NPF": [10.0]}, width=10)
        assert "#" in out and "*" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            grouped_bar_chart(["a"], {})
        with pytest.raises(ValueError):
            grouped_bar_chart(["a", "b"], {"s": [1.0]})
        with pytest.raises(ValueError):
            grouped_bar_chart(["a"], {"s": [1.0]}, width=0)

    def test_blank_line_between_groups(self):
        out = grouped_bar_chart(["a", "b"], {"x": [1, 2], "y": [3, 4]})
        assert "" in out.splitlines()

    def test_panel_chart_integration(self):
        from repro.experiments.figures import Panel
        from repro.metrics.chart import panel_chart

        panel = Panel(
            letter="a",
            x_label="Size",
            x_values=[1, 10],
            series={"PF": [5.0, 6.0], "NPF": [7.0, 8.0]},
        )
        out = panel_chart(panel)
        assert "[Size]" in out
        assert "PF" in out and "NPF" in out
