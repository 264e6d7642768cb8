"""One-call reproduction validation: every shape claim, pass/fail.

``python -m repro.cli verify`` runs the Table-II sweeps plus the
Berkeley trace and checks the paper's qualitative claims (who wins, how
curves bend).  The same checks back the benchmark assertions; here they
are a library so CI or a skeptical reader can get a verdict in one
command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.figures import figure6
from repro.experiments.study import compared, group, Results
from repro.experiments.sweeps import SWEEPS
from repro.metrics.report import format_table


@dataclass(frozen=True)
class CheckResult:
    """One shape claim's verdict."""

    claim: str
    source: str
    passed: bool
    detail: str


def _series(points, getter):
    return [getter(c) for c in points]


def validate_reproduction(results: Results) -> List[CheckResult]:
    """Check every claim on the results of a study holding the Table-II
    sweeps (:func:`~repro.experiments.sweeps.sweep_study`) and Fig. 6's
    pair (:func:`~repro.experiments.figures.figure6_study`)."""
    sweeps = {sweep: list(compared(group(results, sweep)).values()) for sweep in SWEEPS}
    checks: List[CheckResult] = []

    def check(claim: str, source: str, passed: bool, detail: str) -> None:
        checks.append(
            CheckResult(claim=claim, source=source, passed=bool(passed), detail=detail)
        )

    # --- Fig. 3 ---------------------------------------------------------------
    size = sweeps["data_size"]
    savings = _series(size, lambda c: c.energy_savings_pct)
    check(
        "PF saves energy at every data size",
        "Fig. 3(a)",
        all(s > 5.0 for s in savings),
        f"savings {['%.1f' % s for s in savings]} %",
    )
    energy = _series(size, lambda c: c.pf.energy_j)
    check(
        "50 MB saturates: absolute energy jumps",
        "Fig. 3(a) / §VI-A",
        energy[3] > 1.3 * energy[1],
        f"E(50MB)/E(10MB) = {energy[3] / energy[1]:.2f}",
    )

    mu = sweeps["mu"]
    mu_savings = _series(mu, lambda c: c.energy_savings_pct)
    mu_hits = _series(mu, lambda c: c.pf.buffer_hit_rate)
    check(
        "MU <= 100 saturates savings (all requests prefetched)",
        "Fig. 3(b) / §VI-A",
        all(h == 1.0 for h in mu_hits[:3])
        and max(mu_savings[:3]) - min(mu_savings[:3]) < 1.0
        and mu_savings[3] == min(mu_savings),
        f"savings {['%.1f' % s for s in mu_savings]} %",
    )

    ia = sweeps["inter_arrival"]
    ia_savings = _series(ia, lambda c: c.energy_savings_pct)
    check(
        "savings grow with inter-arrival delay, worst at 0 ms",
        "Fig. 3(c)",
        ia_savings[0] == min(ia_savings) and ia_savings[3] >= ia_savings[1],
        f"savings {['%.1f' % s for s in ia_savings]} %",
    )

    k = sweeps["prefetch_count"]
    k_savings = _series(k, lambda c: c.energy_savings_pct)
    check(
        "savings grow monotonically with K; K=10 nearly useless",
        "Fig. 3(d)",
        k_savings == sorted(k_savings) and k_savings[0] < 8.0,
        f"savings {['%.1f' % s for s in k_savings]} %",
    )

    # --- Fig. 4 ---------------------------------------------------------------
    k_transitions = _series(k, lambda c: c.pf.transitions)
    check(
        "K=10 is the transition worst case; falls with K",
        "Fig. 4(d)",
        k_transitions == sorted(k_transitions, reverse=True),
        f"transitions {k_transitions}",
    )
    mu_transitions = _series(mu, lambda c: c.pf.transitions)
    check(
        "MU <= 100: one sleep per disk, never woken",
        "Fig. 4(b)",
        mu_transitions[0] == mu_transitions[1] == mu_transitions[2]
        and mu_transitions[3] > 2 * mu_transitions[0],
        f"transitions {mu_transitions}",
    )
    check(
        "NPF never transitions",
        "§V-B (NPF definition)",
        all(c.npf.transitions == 0 for points in sweeps.values() for c in points),
        "all NPF runs at 0",
    )

    # --- Fig. 5 ---------------------------------------------------------------
    size_penalties = _series(size, lambda c: c.response_penalty_pct)
    check(
        "response penalty shrinks as data size grows",
        "Fig. 5(a)",
        size_penalties[2] < size_penalties[0] / 3,
        f"penalties {['%.1f' % p for p in size_penalties]} %",
    )
    mu_penalties = _series(mu, lambda c: c.response_penalty_pct)
    check(
        "no response penalty in the all-hit regime",
        "Fig. 5(b) / §VI-C",
        all(abs(p) < 2.0 for p in mu_penalties[:3]),
        f"penalties {['%.2f' % p for p in mu_penalties]} %",
    )
    k_penalties = _series(k, lambda c: c.response_penalty_pct)
    check(
        "penalty falls with K, mirroring transitions",
        "Fig. 5(d) / §VI-C",
        k_penalties == sorted(k_penalties, reverse=True),
        f"penalties {['%.1f' % p for p in k_penalties]} %",
    )

    # --- Fig. 6 ---------------------------------------------------------------
    fig6 = figure6(results)
    check(
        "web trace: all disks sleep for the whole run, savings near max",
        "Fig. 6 / §VI-D",
        fig6.pf.buffer_hit_rate == 1.0
        and fig6.pf.transitions == 16
        and 10.0 <= fig6.energy_savings_pct <= 20.0,
        f"savings {fig6.energy_savings_pct:.1f} %, transitions {fig6.pf.transitions}",
    )

    return checks


def render_validation(checks: List[CheckResult]) -> str:
    """Printable verdict table plus a summary line."""
    rows = [
        ["PASS" if c.passed else "FAIL", c.source, c.claim, c.detail]
        for c in checks
    ]
    table = format_table(
        ["verdict", "source", "claim", "measured"],
        rows,
        title="Reproduction shape checks",
    )
    passed = sum(1 for c in checks if c.passed)
    return f"{table}\n\n{passed}/{len(checks)} checks passed"


def all_passed(checks: List[CheckResult]) -> bool:
    return all(c.passed for c in checks)
