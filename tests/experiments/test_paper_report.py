"""Tests for the Markdown report generator."""

import pytest

from repro.experiments.paper import generate_report
from repro.experiments.sweeps import sweep_study


@pytest.fixture(scope="module")
def report():
    return generate_report(n_requests=120, include_ablations=False)


def test_report_contains_every_figure(report):
    for marker in ("Fig3", "Fig4", "Fig5", "Fig6"):
        assert marker in report.markdown


def test_report_contains_baselines_and_validation(report):
    assert "Baseline shoot-out" in report.markdown
    assert "Shape validation" in report.markdown
    assert "checks passed" in report.markdown


def test_report_tables_are_markdown(report):
    assert "| Data Size (MB) |" in report.markdown
    assert "|---|" in report.markdown


def test_report_reuses_one_sweep_corpus(report):
    assert set(sweep_study(n_requests=120)) <= set(report.results)


def test_report_write(report, tmp_path):
    path = tmp_path / "r.md"
    report.write(path)
    assert path.read_text() == report.markdown


def test_ablations_included_when_requested():
    report = generate_report(
        n_requests=80, include_ablations=True, include_baselines=False
    )
    assert "Ablations" in report.markdown
    assert "idle threshold" in report.markdown
    assert "Baseline shoot-out" not in report.markdown
