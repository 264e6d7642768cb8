"""``python -m bench``: run the benchmark (see bench/README.md).

Without ``--workload`` it runs all four workloads (7 timed repeats each,
round-robin, then one traced pass each and the paper_default
diagnostics), prints every metric by name and unit, and writes
``<out>/result.json`` plus one ``<out>/<workload>.trace.json`` per
workload.

With ``--workload NAME`` it measures that workload alone for at least
``--seconds`` and prints, as its last line, one JSON object holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

Either way the exit code is 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
import sys
from typing import Any, Dict, List, Optional, Sequence

from bench import BENCHMARK_JSON, ROOT, SRC

REPEATS = 7
MIN_REPEATS = 3
REFERENCE_DIR = ROOT / "bench" / "reference"


def load_spec() -> Dict[str, Dict[str, Any]]:
    """Metric name -> its BENCHMARK.json entry, tagged with its section."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {
        metric["name"]: {**metric, "section": section}
        for section in ("end_to_end", "per_layer")
        for metric in spec[section]
    }


def is_exact(name: str, pinned: Sequence[str]) -> bool:
    """Simulated values and call counts repeat exactly; host times do not."""
    return name in pinned or name.endswith(".calls") or name == "meanfield.energy_err_pct"


def metric_table(run: Any, spec: Dict[str, Dict[str, Any]], names: Sequence[str]) -> Dict[str, Any]:
    pinned = run.pinned()
    table = {}
    for name in names:
        entry = {
            "value": run.metrics[name],
            "unit": spec[name]["unit"],
            "better": spec[name]["better"],
            "kind": "exact" if is_exact(name, pinned) else "host",
        }
        if name in run.samples:
            entry["samples"] = run.samples[name]
        table[name] = entry
    return table


def write_trace(out: Path, run: Any, seed: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": run.workload.name,
        "seed": seed,
        "time_unit": "s since the workload's first phase",
        "spans": run.spans,
        "fold_coverage_pct": run.metrics["bench.fold_coverage_pct"],
        "trace_overhead_x": run.metrics["bench.trace_overhead_x"],
        "layers": run.layers,
    }
    (out / f"{run.workload.name}.trace.json").write_text(json.dumps(document, indent=1) + "\n")


def print_metrics(workload: str, table: Dict[str, Any]) -> None:
    for name, entry in table.items():
        print(f"{workload:<16} {name:<30} {entry['value']:>16.6g} {entry['unit']}")


def print_layers(run: Any) -> None:
    print(
        f"\n{run.workload.name}: traced run {run.metrics['bench.trace_overhead_x']:.2f}x "
        f"the untraced median; the fold covers {run.metrics['bench.fold_coverage_pct']:.1f}% "
        f"of profiled self time"
    )
    print(f"  {'layer':<16} {'self_s':>8} {'share':>7} {'calls':>10}  moves")
    for row in sorted(run.layers, key=lambda r: -r["self_s"]):
        print(
            f"  {row['layer']:<16} {row['self_s']:>8.3f} {row['share_pct']:>6.1f}% "
            f"{row['calls']:>10}  {row['moves']}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    from bench.outcome import fingerprint
    from bench.runner import measure
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="trace RNG and cluster seed")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="measure one workload")
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="one workload: measure at least this long"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="one workload: 0 = end-to-end metrics, 1 = per-layer metrics of a traced run",
    )
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out", help="output dir")
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="all workloads: write bench/reference/seed<SEED>.json from this run",
    )
    args = parser.parse_args(argv)
    if args.write_reference and args.workload:
        parser.error("--write-reference needs all workloads (drop --workload)")

    spec = load_spec()
    reference_path = REFERENCE_DIR / f"seed{args.seed}.json"
    reference = None
    if reference_path.exists() and not args.write_reference:
        reference = json.loads(reference_path.read_text())

    if args.workload:
        runs, diagnosed = measure(
            [args.workload],
            args.seed,
            min_repeats=MIN_REPEATS,
            seconds=args.seconds,
            end_to_end=args.trace == 0,
            traced=args.trace == 1,
            reference=reference,
        )
        run = runs[0]
        run.metrics.update(diagnosed)
        section = "per_layer" if args.trace else "end_to_end"
        table = metric_table(run, spec, [n for n, m in spec.items() if m["section"] == section])
        if args.trace:
            write_trace(args.out, run, args.seed)
        print_metrics(run.workload.name, table)
        for problem in run.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": not run.problems,
                    "attempted": run.attempted,
                    "failed": run.failed,
                    "metrics": {
                        name: {"value": entry["value"], "unit": entry["unit"]}
                        for name, entry in table.items()
                    },
                }
            )
        )
        return 0 if not run.problems else 1

    runs, diagnosed = measure(
        list(WORKLOADS), args.seed, min_repeats=REPEATS, reference=reference
    )
    result: Dict[str, Any] = {"schema": "eevfs-bench/1", "seed": args.seed, "workloads": {}}
    problems: List[str] = []
    for run in runs:
        if run.workload.name == "paper_default":
            run.metrics.update(diagnosed)
        names = [n for n in spec if n in run.metrics]
        table = metric_table(run, spec, names)
        print_metrics(run.workload.name, table)
        write_trace(args.out, run, args.seed)
        problems.extend(run.problems)
        result["workloads"][run.workload.name] = {
            "metrics": table,
            "layers": run.layers,
            "fingerprint": hashlib.sha256(fingerprint(run.pinned()).encode()).hexdigest(),
        }
    for run in runs:
        print_layers(run)
    result["correct"] = not problems
    result["checks_failed"] = problems
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.write_reference:
        REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
        reference_path.write_text(
            json.dumps({run.workload.name: run.pinned() for run in runs}, indent=1, sort_keys=True)
            + "\n"
        )
    print(f"\nresult: {args.out / 'result.json'}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("checks: " + ("all passed" if not problems else f"{len(problems)} failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench: no simulator source at {SRC / 'repro'}; run from a repository checkout")
    sys.exit(main())
