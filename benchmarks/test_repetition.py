"""Statistical backing for the headline claim: multi-seed repetition.

The paper's 11-17 % savings figures are single measurements; here the
default operating point repeats across five seeds (workload + jitter
both redrawn) and the claim is asserted on the confidence interval, not
one draw.
"""

from conftest import N_REQUESTS

from repro.experiments.repetition import repeat_pair
from repro.traces.synthetic import SyntheticWorkload


def test_headline_savings_with_confidence(benchmark):
    result = benchmark.pedantic(
        lambda: repeat_pair(
            workload=SyntheticWorkload(n_requests=min(N_REQUESTS, 600)),
            seeds=(0, 1, 2, 3, 4),
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    savings = result.savings_pct
    # The paper's band, now with error bars: the whole 95 % CI must sit
    # inside 5-20 %, and the estimate must be tight (not seed-luck).
    lo, hi = savings.mean - savings.ci95_halfwidth, savings.mean + savings.ci95_halfwidth
    assert 5.0 < lo and hi < 20.0
    assert savings.ci95_halfwidth < 3.0
    # Response penalty stays "tolerable" (§VI-C) across seeds.
    assert result.penalty_pct.mean < 40.0
