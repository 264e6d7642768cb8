"""Generated and imported traces, pinned across commits.

``tests/golden/traces.json`` maps each case of :data:`CASES` to the
sha256 of the trace's :func:`~repro.traces.logio.write_trace` text:
catalog, meta and every request's repr-exact timestamp, file id and
op.  A change to how a generator draws, how an importer parses, or how
a trace stores its requests that moves any of them fails here.

To re-pin after a deliberate change in what a generator produces, run
``PYTHONPATH=src python tests/traces/test_trace_goldens.py`` from the
repository root and say in CHANGES.md why the traces moved.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.traces import (
    BerkeleyWebWorkload,
    DiurnalWorkload,
    DriftingWorkload,
    generate_berkeley_like_trace,
    generate_diurnal_trace,
    generate_drifting_trace,
    generate_synthetic_trace,
    read_msr_trace,
    SyntheticWorkload,
    write_trace,
)

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "traces.json"

N_REQUESTS = 2000
SEEDS = (1, 3)

#: name -> (generator, workload); each is pinned at every seed of SEEDS.
GENERATED = {
    "synthetic": (generate_synthetic_trace, SyntheticWorkload(n_requests=N_REQUESTS)),
    "synthetic:writes": (
        generate_synthetic_trace,
        SyntheticWorkload(n_requests=N_REQUESTS, write_fraction=0.4),
    ),
    "drifting": (generate_drifting_trace, DriftingWorkload(n_requests=N_REQUESTS)),
    "diurnal": (generate_diurnal_trace, DiurnalWorkload(n_requests=N_REQUESTS)),
    "berkeley": (
        generate_berkeley_like_trace,
        BerkeleyWebWorkload(n_requests=N_REQUESTS),
    ),
}

TICK = 10_000_000  # FILETIME ticks per second

#: Out of time order, two hosts and disks, reads and writes, offsets
#: sharing and splitting extents.
MSR_CSV = "\n".join(
    [
        "# Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
        f"{130 * TICK + 5},web0,0,Read,0,4096,100",
        f"{128 * TICK},web0,0,Write,{21 * 1024 * 1024},4096,80",
        f"{131 * TICK + 3},web1,0,Read,{1024 * 1024},512,10",
        f"{129 * TICK + 1},web0,1,Read,0,8192,12",
        f"{131 * TICK + 3},web0,0,Write,{5 * 1024 * 1024},4096,7",
        "",
        f"{140 * TICK},web1,0,Read,{35 * 1024 * 1024},4096,9",
    ]
)


def _generated(name, seed):
    generate, workload = GENERATED[name]
    return generate(workload, rng=np.random.default_rng(seed))


def _transformed(transform):
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=300, write_fraction=0.3),
        rng=np.random.default_rng(5),
    )
    return transform(trace)


def _cases():
    cases = {
        f"{name}:seed{seed}": (lambda name=name, seed=seed: _generated(name, seed))
        for name in GENERATED
        for seed in SEEDS
    }
    cases["msr"] = lambda: read_msr_trace(io.StringIO(MSR_CSV), extent_bytes=2 * 1024 * 1024)
    cases["head"] = lambda: _transformed(lambda trace: trace.head(120))
    return cases


CASES = _cases()


def digest(trace):
    """sha256 of *trace*'s trace-file text."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def entries():
    """Every case's digest, as the golden file holds them."""
    return {name: digest(build()) for name, build in CASES.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_its_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert digest(CASES[name]()) == golden[name]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(entries(), sort_keys=True, indent=1) + "\n")
