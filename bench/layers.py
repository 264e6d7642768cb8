"""Module -> layer map and the fold of a cProfile run into layer self time.

Each layer is named after the modules it covers (paths relative to
``src/repro``; a trailing ``/`` covers a whole package).  Self time
(``tottime``) of the repository's own functions is charged to their
layer directly.  Self time of stdlib and builtin functions (heapq,
dict methods, numpy) is charged to the layers that called them, split
by the time each caller induced and followed up the call graph until a
repository function is reached.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
import pstats
from typing import Dict, FrozenSet, Optional, Tuple

from bench import SRC

#: (layer, modules, the end-to-end metric and workload it should move)
LAYERS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("sim", ("sim/",), "req_per_s on all four; most on metaplane_chaos"),
    ("net", ("net/",), "req_per_s on metaplane_chaos; resp times on paper_default"),
    ("core.client", ("core/client.py",), "resp_p99_ms and served_frac on metaplane_chaos"),
    (
        "core.server",
        (
            "core/server.py",
            "core/metadata.py",
            "core/placement.py",
            "core/popularity.py",
            "core/prefetch.py",
            "core/protocol.py",
        ),
        "energy_saving_pct on paper_default and online_drift",
    ),
    ("core.node", ("core/node.py", "core/writebuffer.py"), "resp_p99_ms on ssd_write"),
    ("core.power", ("core/power.py", "core/prediction.py"), "energy_kj on paper_default"),
    ("disk", ("disk/", "backend/hdd.py"), "req_per_s and resp_mean_ms on paper_default"),
    (
        "backend.ssd",
        (
            "backend/ssd.py",
            "backend/ftl.py",
            "backend/factory.py",
            "backend/protocol.py",
            "backend/__init__.py",
        ),
        "req_per_s and energy_kj on ssd_write; nothing elsewhere",
    ),
    ("online", ("online/",), "energy_saving_pct and req_per_s on online_drift"),
    ("metaplane", ("metaplane/",), "req_per_s and resp_p99_ms on metaplane_chaos"),
    ("faults", ("faults/", "replication/"), "served_frac on metaplane_chaos"),
    ("obs", ("obs/",), "nothing: obs is off in timed runs (see obs.overhead_x)"),
    ("traces", ("traces/",), "setup_s on every workload"),
    ("analysis", ("analysis/",), "nothing in timed runs (see meanfield.analyze_ms)"),
    (
        "core.filesystem",
        ("core/filesystem.py", "core/config.py", "core/__init__.py", "metrics/", "experiments/"),
        "setup_s and req_per_s on every workload",
    ),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)
_REPRO = SRC / "repro"

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """Layer of a source file, or None outside ``src/repro``'s layers."""
    try:
        rel = Path(filename).resolve().relative_to(_REPRO).as_posix()
    except ValueError:
        return None
    for name, modules, _ in LAYERS:
        for module in modules:
            if rel == module or (module.endswith("/") and rel.startswith(module)):
                return name
    return None


def fold(stats: pstats.Stats) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Fold a profile into ``(self_s per layer, calls per layer, total self_s)``.

    ``calls`` counts calls of the layer's own functions only.  The share
    of the total that reached no layer is ``1 - sum(self_s) / total``.
    """
    table = stats.stats  # type: ignore[attr-defined]
    own: Dict[Func, Optional[str]] = {func: layer_of(func[0]) for func in table}
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, path: FrozenSet[Func]) -> Dict[str, float]:
        """How *func*'s self time splits over layers (fractions summing to <= 1)."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in path or func not in table:
            return {}
        callers = table[func][4]
        weights = {caller: v[2] for caller, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:  # no measurable time from any caller: split by calls
            weights = {caller: v[0] for caller, v in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for name, frac in shares(caller, path | {func}).items():
                out[name] += frac * weight / total
        memo[func] = dict(out)
        return memo[func]

    self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
    calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
    total_s = 0.0
    for func, (_, ncalls, tottime, _, _) in table.items():
        total_s += tottime
        if own[func] is not None:
            calls[own[func]] += ncalls
        for name, frac in shares(func, frozenset()).items():
            self_s[name] += tottime * frac
    return self_s, calls, total_s
