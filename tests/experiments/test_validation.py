"""Tests for the one-call reproduction validation harness."""

import pytest

from repro.experiments.figures import figure6_study
from repro.experiments.study import run_study
from repro.experiments.sweeps import sweep_study
from repro.experiments.validation import (
    all_passed,
    CheckResult,
    render_validation,
    validate_reproduction,
)


@pytest.fixture(scope="module")
def checks():
    study = {**sweep_study(n_requests=200), **figure6_study(n_requests=200)}
    return validate_reproduction(run_study(study))


def test_all_claims_pass_at_small_scale(checks):
    failing = [c for c in checks if not c.passed]
    assert not failing, f"failing claims: {[(c.claim, c.detail) for c in failing]}"


def test_every_figure_is_covered(checks):
    sources = " ".join(c.source for c in checks)
    for figure in ("Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6"):
        assert figure in sources


def test_check_count(checks):
    assert len(checks) == 12


def test_render_contains_verdicts(checks):
    text = render_validation(checks)
    assert "PASS" in text
    assert f"{len(checks)}/{len(checks)} checks passed" in text


def test_all_passed_helper(checks):
    assert all_passed(checks)
    broken = checks + [
        CheckResult(claim="x", source="y", passed=False, detail="z")
    ]
    assert not all_passed(broken)
    assert "FAIL" in render_validation(broken)
