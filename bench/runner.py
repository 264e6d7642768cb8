"""The measurement protocol.

Per workload, in this order:

1. **Preparation, untimed.**  The NPF reference run (``config.as_npf()``,
   same trace and seed), which also warms the process up.  Then the
   memory pass: one set-up and run under ``tracemalloc`` at 1/8 of the
   request count, because tracing every allocation slows the simulator
   ~5x and a full-size pass would not fit the time budget.
2. **Timed repeats.**  A repeat sets up three times (trace generation
   plus ``EEVFSCluster`` construction, each timed), runs the last cluster
   (timed) and records the simulated outcome.  Probes bracket every
   repeat (see ``bench/probe.py``).  Repeats go round-robin over the
   workloads until at least ``min_repeats`` rounds are done and
   ``seconds`` have passed.
3. **Traced pass**, if asked for: one more set-up and run under cProfile,
   folded into the layer table (``bench/layers.py``).
4. **Checks**: conservation and sanity bounds on every run, an identical
   outcome on every run, and the checked-in reference for the seed, if
   there is one (``bench/reference/seed1.json``).

The paper_default diagnostics (scaling curve, mean-field error, obs
overhead) run after the traced passes.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
import cProfile
import gc
import pstats
import statistics
import time
import tracemalloc
from typing import Any, Dict, Iterator, List, Optional, Sequence

from bench.layers import fold, LAYERS
from bench.outcome import check_run, fingerprint, MIB, Outcome, outcome
from bench.probe import P0_S, ProbeChain
from bench.workloads import Workload, WORKLOADS
from repro.analysis.meanfield import analyze
from repro.core.filesystem import EEVFSCluster, RunResult
from repro.metrics.comparison import compare
from repro.traces.model import Trace
from repro.traces.synthetic import SyntheticWorkload

MEMORY_SHRINK = 8
SETUPS_PER_REPEAT = 3
#: paper_default request counts of the scaling curve.
SCALE_SIZES = (1500, 3000, 6000, 12000)
ANALYZE_REPEATS = 5

Reference = Dict[str, Dict[str, float]]


class WorkloadRun:
    """Every measurement of one workload in one invocation."""

    def __init__(self, workload: Workload, seed: int, shrink: int = 1) -> None:
        self.workload = workload
        self.seed = seed
        self.n_requests = max(1, workload.n_requests // shrink)
        #: metric name -> reported value (medians for host metrics)
        self.metrics: Dict[str, float] = {}
        #: host metric name -> one value per timed repeat
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.layers: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self._first: Optional[Outcome] = None
        self._npf: Optional[RunResult] = None
        self._open: List[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a phase span (seconds since this run object was made)."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def _record(
        self, label: str, cluster: EEVFSCluster, result: RunResult, trace: Trace
    ) -> Outcome:
        values = outcome(cluster, result, trace)
        where = f"{self.workload.name} {label}"
        self.problems.extend(f"{where}: {p}" for p in check_run(values, cluster))
        if self._first is None:
            self._first = values
            self.metrics.update(values)
            assert self._npf is not None
            self.metrics["energy_saving_pct"] = compare(result, self._npf).energy_savings_pct
        elif fingerprint(values) != fingerprint(self._first):
            self.problems.append(f"{where}: determinism: outcome differs from the first run")
        return values

    def prepare(self, memory: bool) -> None:
        with self.span("npf.reference"):
            trace = self.workload.trace(self.seed, self.n_requests)
            npf = self.workload.cluster(self.seed, config=self.workload.config.as_npf())
            self._npf = npf.run(trace)
        # After the warm-up, so one-time imports and caches are not counted.
        if memory:
            with self.span("memory.pass"):
                gc.collect()
                tracemalloc.start()
                try:
                    trace, cluster = self.workload.setup(
                        self.seed, max(1, self.n_requests // MEMORY_SHRINK)
                    )
                    cluster.run(trace)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            self.metrics["peak_mem_mb"] = peak / MIB

    def timed_repeat(self, chain: ProbeChain) -> None:
        with self.span("repeat"):
            gc.collect()
            setup_s: List[float] = []
            built = []
            for _ in range(SETUPS_PER_REPEAT):
                start = time.perf_counter()
                built.append(self.workload.setup(self.seed, self.n_requests))
                setup_s.append(time.perf_counter() - start)
            trace, cluster = built.pop()
            del built
            gc.collect()
            start = time.perf_counter()
            result = cluster.run(trace)
            run_s = time.perf_counter() - start
        factor = chain.factor()
        values = self._record(f"repeat {len(self.samples['run_s']) + 1}", cluster, result, trace)
        self.attempted += values["requests"]
        self.failed += values["failed"]
        self.samples["setup_s"].append(statistics.median(setup_s) * factor)
        self.samples["run_s"].append(run_s * factor)
        self.samples["req_per_s"].append(values["served"] / (run_s * factor))
        self.samples["bench.wall_s_raw"].append(run_s)
        self.samples["bench.probe_s"].append(P0_S / factor)

    def summarise_repeats(self) -> None:
        for name, values in self.samples.items():
            self.metrics[name] = statistics.median(values)
        self.metrics["sim.events_per_s"] = self.metrics["sim.events"] / self.metrics["run_s"]

    def traced_pass(self, chain: ProbeChain) -> None:
        profiler = cProfile.Profile()
        gc.collect()
        with self.span("traced.pass"):
            profiler.enable()
            with self.span("trace.generate"):
                trace = self.workload.trace(self.seed, self.n_requests)
            with self.span("cluster.build"):
                cluster = self.workload.cluster(self.seed)
            with self.span("cluster.run"):
                start = time.perf_counter()
                result = cluster.run(trace)
                run_s = time.perf_counter() - start
            profiler.disable()
        factor = chain.factor()
        self._record("traced pass", cluster, result, trace)
        self_s, calls, total_s = fold(pstats.Stats(profiler))
        folded_s = sum(self_s.values())
        self.metrics["bench.fold_coverage_pct"] = 100.0 * folded_s / total_s
        self.metrics["bench.trace_overhead_x"] = run_s * factor / self.metrics["run_s"]
        for name, modules, moves in LAYERS:
            self.metrics[f"{name}.self_s"] = self_s[name] * factor
            self.metrics[f"{name}.calls"] = calls[name]
            self.layers.append(
                {
                    "layer": name,
                    "self_s": self_s[name] * factor,
                    "share_pct": 100.0 * self_s[name] / folded_s,
                    "calls": calls[name],
                    "modules": list(modules),
                    "moves": moves,
                }
            )

    def pinned(self) -> Dict[str, float]:
        """The simulated values the seed-1 reference pins."""
        assert self._first is not None
        return {**self._first, "energy_saving_pct": self.metrics["energy_saving_pct"]}

    def check_reference(self, reference: Reference) -> None:
        with self.span("check"):
            expected = reference.get(self.workload.name)
            if expected is None:
                self.problems.append(f"{self.workload.name}: reference: no entry")
                return
            actual = self.pinned()
            for key in sorted(set(expected) | set(actual)):
                if expected.get(key) != actual.get(key):
                    self.problems.append(
                        f"{self.workload.name}: reference: {key} = {actual.get(key)!r}, "
                        f"expected {expected.get(key)!r}"
                    )


def diagnostics(seed: int, chain: ProbeChain, sizes: Sequence[int] = SCALE_SIZES) -> Dict[str, float]:
    """Scaling curve, mean-field error and obs overhead on paper_default."""
    workload = WORKLOADS["paper_default"]
    per_request_s: Dict[int, float] = {}
    for n in sizes:
        trace, cluster = workload.setup(seed, n)
        gc.collect()
        start = time.perf_counter()
        pf = cluster.run(trace)
        per_request_s[n] = (time.perf_counter() - start) * chain.factor() / n
    metrics = {
        f"scale.us_per_req.n{name}": per_request_s[n] * 1e6
        for name, n in zip(SCALE_SIZES, sizes, strict=True)
    }
    metrics["scale.growth"] = per_request_s[sizes[-1]] / per_request_s[sizes[0]]

    npf = workload.cluster(seed, config=workload.config.as_npf()).run(trace)
    params = SyntheticWorkload(n_requests=sizes[-1])
    walls = []
    for _ in range(ANALYZE_REPEATS):
        start = time.perf_counter()
        predicted = analyze(params, config=workload.config)
        walls.append(time.perf_counter() - start)
    metrics["meanfield.analyze_ms"] = statistics.median(walls) * chain.factor() * 1e3
    metrics["meanfield.energy_err_pct"] = 100.0 * max(
        abs(predicted.pf_energy_j / pf.energy_j - 1.0),
        abs(predicted.npf_energy_j / npf.energy_j - 1.0),
    )

    trace, cluster = workload.setup(seed, sizes[-1], obs=True)
    gc.collect()
    start = time.perf_counter()
    cluster.run(trace)
    obs_s = (time.perf_counter() - start) * chain.factor()
    metrics["obs.overhead_x"] = obs_s / (per_request_s[sizes[-1]] * sizes[-1])
    return metrics


def measure(
    names: Sequence[str],
    seed: int,
    *,
    min_repeats: int,
    seconds: float = 0.0,
    end_to_end: bool = True,
    traced: bool = True,
    reference: Optional[Reference] = None,
    shrink: int = 1,
) -> tuple[List[WorkloadRun], Dict[str, float]]:
    """Run the protocol on *names*; return the runs and the diagnostics.

    ``shrink`` divides every request count (the self-test runs tiny
    workloads with it).  Diagnostics are measured only when ``traced``.
    """
    runs = [WorkloadRun(WORKLOADS[name], seed, shrink) for name in names]
    for run in runs:
        run.prepare(memory=end_to_end)
    chain = ProbeChain()
    start = time.perf_counter()
    rounds = 0
    while rounds < min_repeats or time.perf_counter() - start < seconds:
        for run in runs:
            run.timed_repeat(chain)
        rounds += 1
    for run in runs:
        run.summarise_repeats()
    diagnosed: Dict[str, float] = {}
    if traced:
        for run in runs:
            run.traced_pass(chain)
        diagnosed = diagnostics(seed, chain, [max(1, n // shrink) for n in SCALE_SIZES])
    if reference is not None:
        for run in runs:
            run.check_reference(reference)
    return runs, diagnosed
