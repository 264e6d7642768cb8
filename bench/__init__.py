"""The repository benchmark: four EEVFS workloads, measured end to end and per layer.

``python -m bench`` runs it (see ``bench/README.md``).  The package only
drives the simulator through its public entry points; it puts the
checkout's ``src`` directory first on ``sys.path`` so the code under
measurement is always the code next to it, never an installed copy.
"""

from __future__ import annotations

from pathlib import Path
import sys

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
