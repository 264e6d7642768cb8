"""Gate a traced benchmark run on per-layer call ceilings.

``python -m bench --workload W --seed 1 --seconds 1 --trace 1`` ends its
output with one JSON line.  Its ``<layer>.calls`` metrics count the calls
to each layer's own functions in the profiled pass.  On one CPython
minor version those counts repeat exactly, so ``call_ceilings.json``
next to this file pins them with no noise band::

    python -m bench --workload ssd_write --seed 1 --seconds 1 --trace 1 > out.txt
    python benchmarks/call_ceilings.py ssd_write out.txt           # check
    python benchmarks/call_ceilings.py ssd_write out.txt --write   # re-pin

The check exits 1 when any layer makes more calls than its ceiling, when
the run's layers differ from the pinned ones, or when this interpreter
is not the pinned version.  Fewer calls pass.  See docs/performance.md
for when a ceiling may be raised.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import sys
from typing import Dict, List, Optional, Sequence

CEILINGS = Path(__file__).with_name("call_ceilings.json")


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def layer_calls(output: str) -> Dict[str, int]:
    """The ``<layer>.calls`` metrics of a bench run's last output line."""
    metrics = json.loads(output.strip().splitlines()[-1])["metrics"]
    return {
        name: int(entry["value"]) for name, entry in metrics.items() if name.endswith(".calls")
    }


def check(
    calls: Dict[str, int], ceilings: Dict[str, int], pinned_python: str, python: str
) -> List[str]:
    """Every way *calls* breaks the ceilings, as readable lines."""
    if python != pinned_python:
        return [f"ceilings are pinned on CPython {pinned_python}, this is {python}"]
    problems = [f"{name}: no ceiling pinned" for name in sorted(set(calls) - set(ceilings))]
    problems += [f"{name}: not reported" for name in sorted(set(ceilings) - set(calls))]
    for name in sorted(set(calls) & set(ceilings)):
        if calls[name] > ceilings[name]:
            excess = calls[name] - ceilings[name]
            share = f" (+{excess / ceilings[name]:.1%})" if ceilings[name] else ""
            problems.append(
                f"{name}: {calls[name]:,} calls exceed the ceiling {ceilings[name]:,}"
                f" by {excess:,}{share}"
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", help="the workload the run measured")
    parser.add_argument("output", type=Path, help="standard output of the traced bench run")
    parser.add_argument(
        "--write", action="store_true", help="pin this run's counts as the workload's ceilings"
    )
    args = parser.parse_args(argv)
    pinned = json.loads(CEILINGS.read_text())
    calls = layer_calls(args.output.read_text())
    if args.write:
        if python_version() != pinned["python"]:
            parser.error(f"re-pin on CPython {pinned['python']}, not {python_version()}")
        pinned["ceilings"][args.workload] = calls
        CEILINGS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload}: pinned {len(calls)} call ceilings in {CEILINGS.name}")
        return 0
    if args.workload not in pinned["ceilings"]:
        parser.error(f"no ceilings pinned for workload {args.workload!r}")
    problems = check(calls, pinned["ceilings"][args.workload], pinned["python"], python_version())
    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    if not problems:
        print(f"{args.workload}: all {len(calls)} layers within their call ceilings")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
