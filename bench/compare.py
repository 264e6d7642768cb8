"""Compare benchmark results: ``python bench/compare.py PARENT.json CHANGE.json [...]``.

Arguments come in (parent, change) pairs of ``result.json`` files written
by ``python -m bench``; run the two sides alternately and pass every pair.
All parent files are pooled, as are all change files, and the timed
repeats of each file pair are paired one to one.

Each workload x metric gets one row with both sides' medians and
quartiles and a verdict:

* host metrics, judged by the bound in BENCHMARK.json: ``worse`` when the
  change's median is worse than the parent's by more than the bound;
  ``improved`` when the change wins at least 9/10 of at least 10 pairs
  and the medians differ by more than the parent's interquartile range;
  ``unresolved`` when the parent's own spread is wider than the bound
  (or there is no bound) and not every change run beats every parent
  run; ``unchanged`` otherwise.
* exact metrics (simulated outcomes, call counts): ``unchanged`` only when
  every value is identical; otherwise ``improved`` or ``worse`` when every
  change value is on one side of every parent value, else ``unresolved``.

The exit code is 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def _better(a: float, b: float, higher: bool) -> bool:
    """True when *b* is better than *a*."""
    return b > a if higher else b < a


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
    higher: bool,
    exact: bool,
    bound: Optional[float],
) -> str:
    all_better = all(_better(a, b, higher) for a in parent for b in change)
    all_worse = all(_better(b, a, higher) for a in parent for b in change)
    if exact:
        if set(parent) == set(change) and len(set(parent)) == 1:
            return "unchanged"
        return "improved" if all_better else "worse" if all_worse else "unresolved"
    q1, med_a, q3 = quartiles(parent)
    med_b = statistics.median(change)
    worse_by = (med_a - med_b if higher else med_b - med_a) / abs(med_a) if med_a else 0.0
    if bound is not None and worse_by > bound:
        return "worse"
    wins = sum(_better(a, b, higher) for a, b in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and worse_by < 0 and abs(med_b - med_a) > q3 - q1:
        return "improved"
    if (bound is None or (q3 - q1) / abs(med_a) > bound) and not all_better:
        return "unresolved"
    return "unchanged"


def _values(entry: Dict) -> List[float]:
    return list(entry.get("samples") or [entry["value"]])


def compare(parents: Sequence[Dict], changes: Sequence[Dict], spec: Dict[str, Dict]) -> List[Dict]:
    rows = []
    workloads = [w for w in parents[0]["workloads"] if w in changes[0]["workloads"]]
    for workload in workloads:
        for name, meta in spec.items():
            sides = [
                [r["workloads"][workload]["metrics"].get(name) for r in side]
                for side in (parents, changes)
            ]
            if any(entry is None for side in sides for entry in side):
                continue
            parent = [v for entry in sides[0] for v in _values(entry)]
            change = [v for entry in sides[1] for v in _values(entry)]
            pairs = [
                pair
                for a, b in zip(sides[0], sides[1], strict=True)
                for pair in zip(_values(a), _values(b))
            ]
            exact = sides[0][0]["kind"] == "exact"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": meta["unit"],
                    "parent": quartiles(parent),
                    "change": quartiles(change),
                    "wins": sum(_better(a, b, meta["better"] == "higher") for a, b in pairs),
                    "pairs": len(pairs),
                    "verdict": verdict(
                        parent, change, pairs, meta["better"] == "higher", exact, meta.get("bound")
                    ),
                }
            )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", type=Path, help="PARENT.json CHANGE.json [...]")
    args = parser.parse_args(argv)
    if len(args.results) % 2:
        parser.error("give results in (parent, change) pairs")
    loaded = [json.loads(path.read_text()) for path in args.results]
    spec = json.loads(BENCHMARK_JSON.read_text())
    metrics = {m["name"]: m for section in ("end_to_end", "per_layer") for m in spec[section]}
    rows = compare(loaded[0::2], loaded[1::2], metrics)
    print(
        f"{'workload':<16} {'metric':<28} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'change':>8} {'won':>7}  verdict"
    )
    for row in rows:
        parent_median, change_median = row["parent"][1], row["change"][1]
        delta = (
            f"{100 * (change_median - parent_median) / abs(parent_median):+.2f}%"
            if parent_median
            else "n/a"
        )
        print(
            f"{row['workload']:<16} {row['metric']:<28} {_spread(row['parent']):>36} "
            f"{_spread(row['change']):>36} {delta:>8} {row['wins']:>3}/{row['pairs']:<3}  "
            f"{row['verdict']}"
        )
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
