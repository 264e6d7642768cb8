"""Paired PF-vs-NPF comparison: the derived quantities of §VI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.filesystem import RunResult


@dataclass(frozen=True)
class PairedComparison:
    """Derived metrics for one (PF, NPF) pair on the same trace."""

    pf: RunResult
    npf: RunResult

    @property
    def energy_savings_pct(self) -> float:
        """The headline number: percent energy saved by prefetching."""
        if self.npf.energy_j == 0:
            return 0.0
        return 100.0 * (1.0 - self.pf.energy_j / self.npf.energy_j)

    @property
    def response_penalty_pct(self) -> float:
        """Percent increase in mean response time due to prefetching."""
        if self.npf.mean_response_s == 0:
            return 0.0
        return 100.0 * (self.pf.mean_response_s / self.npf.mean_response_s - 1.0)

    @property
    def energy_saved_j(self) -> float:
        return self.npf.energy_j - self.pf.energy_j

    @property
    def savings_per_transition_j(self) -> float:
        """Joules saved per state transition -- the §VI-B wear trade-off."""
        if self.pf.transitions == 0:
            return 0.0
        return self.energy_saved_j / self.pf.transitions

    def as_dict(self) -> Dict[str, object]:
        """Flat summary for tables and JSON export."""
        return {
            "pf_energy_j": self.pf.energy_j,
            "npf_energy_j": self.npf.energy_j,
            "energy_savings_pct": self.energy_savings_pct,
            "pf_transitions": self.pf.transitions,
            "npf_transitions": self.npf.transitions,
            "pf_response_s": self.pf.mean_response_s,
            "npf_response_s": self.npf.mean_response_s,
            "response_penalty_pct": self.response_penalty_pct,
            "pf_hit_rate": self.pf.buffer_hit_rate,
            "pf_duration_s": self.pf.duration_s,
            "npf_duration_s": self.npf.duration_s,
        }


def compare(pf: RunResult, npf: RunResult) -> PairedComparison:
    """Build a :class:`PairedComparison`, sanity-checking the pairing."""
    if not pf.config.prefetch_enabled:
        raise ValueError("first argument must be the PF (prefetching) run")
    if npf.config.prefetch_enabled:
        raise ValueError("second argument must be the NPF run")
    if pf.requests_total != npf.requests_total:
        raise ValueError(
            f"runs served different request counts "
            f"({pf.requests_total} vs {npf.requests_total}) -- not the same trace?"
        )
    return PairedComparison(pf=pf, npf=npf)
