"""Command-line interface: ``python -m repro.cli <command>``.

Commands regenerate the paper's artifacts (tables, figures) and run the
extension studies.  ``--requests`` scales the trace length (the paper
uses 1000); ``--seed`` controls all stochastic components.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.experiments.ablations import (
    ablate_disks_per_node,
    ablate_hints,
    ablate_idle_threshold,
    ablate_replay_mode,
    ablate_window_predictor,
)
from repro.experiments.figures import figure3, figure4, figure5, figure6
from repro.experiments.sweeps import run_all_sweeps
from repro.experiments.tables import table1, table2
from repro.metrics.report import format_table, summary_table


# -- argument types: bad input becomes an argparse error (exit 2) -------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _existing_path(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"no such file or directory: {text!r}")
    return text


def _trace_file(text: str):
    """Read an eevfs trace file (see :mod:`repro.traces.logio`)."""
    from repro.traces import read_trace

    try:
        return read_trace(text)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read trace {text!r}: {exc}") from None


def _experiment_config(text: str):
    """Load an experiment JSON as ``(config, cluster)`` (see repro.core.configio)."""
    from repro.core.configio import load_experiment_config

    try:
        return load_experiment_config(text)
    except (OSError, ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"cannot load config {text!r}: {exc}") from None


def _cmd_tables(args: argparse.Namespace) -> None:
    print(table1())
    print()
    print(table2())


def _cmd_figures(args: argparse.Namespace) -> None:
    from repro.experiments.export import (
        write_figure_csv,
        write_figure_json,
    )

    out_dir = getattr(args, "out", None)
    wanted = set(args.figures or ["3", "4", "5", "6"])
    produced = []
    if wanted & {"3", "4", "5"}:
        sweeps = run_all_sweeps(
            n_requests=args.requests, seed=args.seed, jobs=args.jobs
        )
        builders = {"3": figure3, "4": figure4, "5": figure5}
        for key in ("3", "4", "5"):
            if key in wanted:
                figure = builders[key](sweeps)
                print(figure.render(), end="\n\n")
                if getattr(args, "chart", False):
                    from repro.metrics.chart import panel_chart

                    for letter in sorted(figure.panels):
                        panel = figure.panels[letter]
                        names = [n for n in panel.series if not n.endswith("_pct")]
                        print(panel_chart(panel, series_names=names), end="\n\n")
                produced.append(figure)
    if "6" in wanted:
        fig6 = figure6(n_requests=args.requests, seed=args.seed)
        print(fig6.render())
        produced.append(fig6)
    if out_dir:
        from pathlib import Path

        from repro.experiments.figures import Figure6Result

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for figure in produced:
            if isinstance(figure, Figure6Result):
                write_figure_json(figure, out / "fig6.json")
            elif args.format == "json":
                write_figure_json(figure, out / f"{figure.figure.lower()}.json")
            else:
                write_figure_csv(figure, out)
        print(f"\nexported to {out}/", flush=True)


def _cmd_baselines(args: argparse.Namespace) -> None:
    from repro.experiments.baseline_suite import run_baseline_suite

    runs = run_baseline_suite(
        n_requests=args.requests, seed=args.seed, jobs=args.jobs
    )
    print(
        summary_table(
            runs,
            title="Baseline shoot-out (defaults: 10 MB, MU=1000, IA=700 ms, K=70)",
        )
    )


def _cmd_ablations(args: argparse.Namespace) -> None:
    jobs = args.jobs
    print(
        ablate_idle_threshold(
            n_requests=args.requests, seed=args.seed, jobs=jobs
        ).render()
    )
    print()
    print(ablate_hints(n_requests=args.requests, seed=args.seed, jobs=jobs).render())
    print()
    print(
        ablate_disks_per_node(
            n_requests=args.requests, seed=args.seed, jobs=jobs
        ).render()
    )
    print()
    print(
        ablate_window_predictor(
            n_requests=args.requests, seed=args.seed, jobs=jobs
        ).render()
    )
    print()
    modes = ablate_replay_mode(
        n_requests=min(args.requests, 500), seed=args.seed, jobs=jobs
    )
    rows = [
        [mode, c.energy_savings_pct, c.pf.transitions, c.response_penalty_pct]
        for mode, c in modes.items()
    ]
    print(
        format_table(
            ["replay_mode", "savings_pct", "PF_transitions", "penalty_pct"],
            rows,
            title="=== Ablation: client replay discipline ===",
        )
    )


def _cmd_compare(args: argparse.Namespace) -> None:
    """Deep-dive PF vs NPF at the defaults: totals, breakdowns, wear."""
    import numpy as np

    from repro.core import EEVFSConfig, run_eevfs
    from repro.metrics import compare
    from repro.metrics.breakdown import breakdown_table, compare_breakdowns
    from repro.metrics.wear import wear_report
    from repro.traces.synthetic import SyntheticWorkload, generate_synthetic_trace

    config, cluster = EEVFSConfig(), None
    if args.config:
        loaded_config, cluster = args.config
        if loaded_config is not None:
            config = loaded_config
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=args.requests), rng=np.random.default_rng(1)
    )
    pf = run_eevfs(trace, config.as_pf(), cluster=cluster, seed=args.seed)
    npf = run_eevfs(trace, config.as_npf(), cluster=cluster, seed=args.seed)
    comparison = compare(pf, npf)
    print(
        f"savings {comparison.energy_savings_pct:.1f} %, "
        f"penalty {comparison.response_penalty_pct:.1f} %, "
        f"transitions {pf.transitions}, hit rate {pf.buffer_hit_rate:.0%}\n"
    )
    print(compare_breakdowns(pf, npf))
    print()
    print(breakdown_table(pf))
    worst = wear_report(pf).worst
    if worst is not None:
        print(
            f"\nwear: worst drive {worst.name} reaches its rated start/stop "
            f"budget in {worst.years_to_limit:.2f} years at this duty cycle"
        )
    else:
        print("\nwear: no spin-ups occurred; start/stop budget untouched")


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.experiments.paper import generate_report

    report = generate_report(n_requests=args.requests, seed=args.seed)
    if args.out:
        report.write(args.out)
        print(f"report written to {args.out}")
    else:
        print(report.markdown)


def _cmd_verify(args: argparse.Namespace) -> None:
    from repro.experiments.validation import (
        all_passed,
        render_validation,
        validate_reproduction,
    )

    checks = validate_reproduction(n_requests=args.requests, seed=args.seed)
    print(render_validation(checks))
    if not all_passed(checks):
        raise SystemExit(1)


def _cmd_lint(args: argparse.Namespace) -> None:
    from repro.devtools import all_rules
    from repro.devtools.runner import apply_fixes, lint_paths, render_json, render_text

    select = [s for part in (args.select or []) for s in part.split(",") if s]
    if args.races:
        from repro.devtools.racesuite import (
            DEFAULT_RACE_SEEDS,
            render_race_json,
            render_race_text,
            run_race_suite,
        )

        seeds = [
            int(s) for part in (args.race_seeds or []) for s in part.split(",") if s
        ] or list(DEFAULT_RACE_SEEDS)
        report = run_race_suite(seeds=seeds, n_requests=args.race_requests)
        if args.format == "json":
            print(render_race_json(report), end="")
        else:
            print(render_race_text(report))
        if not report.ok:
            raise SystemExit(1)
        return
    if args.list_rules:
        for rule in all_rules(select or None):
            print(f"{rule.id}  {rule.summary}")
            if rule.rationale:
                print(f"        {rule.rationale}")
        return
    paths = args.paths or ["src"]
    result = lint_paths(paths, select=select or None)
    if args.fix:
        fixed = apply_fixes(result, select=select or None)
        if fixed:
            print(f"applied {fixed} fix(es); re-checking")
        result = lint_paths(paths, select=select or None)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    if not result.ok:
        raise SystemExit(1)


def _cmd_wear(args: argparse.Namespace) -> None:
    import numpy as np

    from repro.core import EEVFSConfig, run_eevfs
    from repro.metrics.wear import wear_report
    from repro.traces.synthetic import SyntheticWorkload, generate_synthetic_trace

    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=args.requests), rng=np.random.default_rng(1)
    )
    result = run_eevfs(
        trace, EEVFSConfig(prefetch_files=args.prefetch), seed=args.seed
    )
    report = wear_report(result)
    print(
        format_table(
            ["disk", "spin-ups", "cycles/year", "years to rated limit"],
            report.rows(),
            title=f"Start/stop wear (K={args.prefetch}, 50k-cycle rating)",
        )
    )
    worst = report.worst
    if worst is not None:
        print(
            f"\nworst drive: {worst.name} -- "
            f"{worst.years_to_limit:.1f} years at this duty cycle"
        )


def _cmd_metadata_drill(args: argparse.Namespace) -> None:
    """Metadata-plane chaos drill: crash every shard leader once and
    compare an unreplicated plane against a 3-replica one."""
    from repro.experiments.metaplane import drill_fingerprint, run_metadata_drill
    from repro.metrics.report import metaplane_table

    results = run_metadata_drill(
        n_requests=args.requests,
        seed=args.seed,
        shards=args.shards,
        replica_counts=tuple(args.meta_replicas),
    )
    last = next(reversed(results.values()))
    assert last.fault_log is not None
    print(last.fault_log.render())
    print()
    print(
        metaplane_table(
            results,
            title=(
                f"Metadata-plane leader-crash drill "
                f"({args.shards} shards, Berkeley trace)"
            ),
        )
    )
    if args.json:
        from pathlib import Path

        fingerprint = drill_fingerprint(results)
        Path(args.json).write_text(fingerprint + "\n")
        print(f"\nfingerprint written to {args.json}")


def _cmd_metaplane(args: argparse.Namespace) -> None:
    """Shard x replica availability sweep (the EXPERIMENTS.md table)."""
    from repro.experiments.metaplane import metaplane_sweep, sweep_rows

    grid = metaplane_sweep(
        shard_counts=tuple(args.shards),
        replica_counts=tuple(args.replicas),
        n_requests=args.requests,
        seed=args.seed,
    )
    print(
        format_table(
            [
                "shards",
                "replicas",
                "elections",
                "leaderless_s",
                "retried",
                "abandoned",
                "availability",
                "mean_response_s",
            ],
            sweep_rows(grid),
            title="Metadata plane under one leader crash per shard",
        )
    )


def _cmd_online(args: argparse.Namespace) -> None:
    """Oracle-vs-online ablation: how much savings survives without
    hindsight?  Optionally writes a determinism fingerprint (--json)."""
    from repro.experiments.online import (
        ablation_rows,
        ABLATION_HEADERS,
        online_ablation,
        online_fingerprint,
        retention_summary,
    )
    from repro.metrics.report import online_series, online_table

    from repro.core import EEVFSConfig

    sweeps = args.sweeps if args.sweeps else None
    config = (
        EEVFSConfig(online_replan_cost_gate=True) if args.cost_gate else None
    )
    ablation = online_ablation(
        sweeps=sweeps,
        n_requests=args.requests,
        seed=args.seed,
        jobs=args.jobs,
        estimator=args.estimator,
        config=config,
    )
    for sweep in ablation:
        points = ablation[sweep]
        print(
            format_table(
                ABLATION_HEADERS,
                ablation_rows(points),
                title=f"Oracle vs online ({args.estimator}): {sweep} sweep",
            )
        )
        print()
    summary = retention_summary(ablation)
    print(
        f"Across {summary['points']:.0f} points: oracle saves "
        f"{summary['oracle_savings_mean_pct']:.1f}% vs NPF, online saves "
        f"{summary['online_savings_mean_pct']:.1f}% -- "
        f"{100 * summary['retention_mean']:.0f}% of the oracle's savings "
        f"retained without hindsight."
    )
    if args.series:
        first = next(iter(ablation.values()))[0]
        print()
        print(
            online_series(
                first.online,
                title=f"Controller trajectory ({first.parameter}={first.value})",
            )
        )
        print()
        print(
            online_table(
                {"oracle": first.oracle, "online": first.online, "npf": first.npf},
                title="Controller activity (first point)",
            )
        )
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(online_fingerprint(ablation))
        print(f"\nFingerprint written to {args.json}")


def _cmd_ssd(args: argparse.Namespace) -> None:
    """SSD buffer-tier sweep: capacity x channels x GC reserve, PF/NPF
    per point, HDD-buffer reference pairs.  Optionally writes a
    determinism fingerprint (--json)."""
    from repro.experiments.ssd import (
        ssd_fingerprint,
        ssd_sweep,
        SSD_HEADERS,
        sweep_rows,
    )

    points = ssd_sweep(
        capacities_mb=tuple(args.capacities_mb),
        channels=tuple(args.channels),
        gc_fractions=tuple(args.gc),
        n_requests=args.requests,
        write_fraction=args.write_fraction,
        seed=args.seed,
        jobs=args.jobs,
    )
    print(
        format_table(
            SSD_HEADERS,
            sweep_rows(points),
            title="SSD vs HDD buffer tier (PF vs NPF per point)",
        )
    )
    ssd_points = [p for p in points if p.backend == "ssd"]
    hdd_points = [p for p in points if p.backend == "hdd"]
    if ssd_points and hdd_points:
        best = max(ssd_points, key=lambda p: p.savings_pct)
        ref = max(hdd_points, key=lambda p: p.savings_pct)
        print(
            f"\nBest SSD point (cap={best.capacity_mb}MB, "
            f"ch={best.channels}) saves {best.savings_pct:.1f}% vs NPF "
            f"(HDD buffer best: {ref.savings_pct:.1f}%); "
            f"WA={best.pf.ssd_write_amplification:.2f}, "
            f"max erase count {best.pf.ssd_max_erase_count}."
        )
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(ssd_fingerprint(points))
        print(f"\nFingerprint written to {args.json}")


def _cmd_faults(args: argparse.Namespace) -> None:
    """Fault drill: one workload, one fault schedule, with and without
    replication -- what does riding out failures cost in energy?"""
    import numpy as np

    from repro.core import EEVFSConfig, run_eevfs

    if args.metadata_drill:
        _cmd_metadata_drill(args)
        return
    from repro.core.config import default_cluster
    from repro.faults import FaultSchedule
    from repro.traces.synthetic import SyntheticWorkload, generate_synthetic_trace

    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=args.requests), rng=np.random.default_rng(1)
    )
    cluster = default_cluster()

    schedule = FaultSchedule()
    if args.mtbf is not None:
        targets = [
            f"{node.name}/data{i}"
            for node in cluster.storage_nodes
            for i in range(node.n_data_disks)
        ]
        schedule.exponential_faults(
            targets, mtbf_s=args.mtbf, horizon_s=trace.duration_s, mttr_s=args.mttr
        )
    else:
        schedule.node_fail(args.fail_node, at=args.at)
        if args.repair_at is not None:
            schedule.node_repair(args.fail_node, at=args.repair_at)

    baseline = run_eevfs(trace, EEVFSConfig(), seed=args.seed, faults=schedule)
    replicated = run_eevfs(
        trace,
        EEVFSConfig(
            replication_factor=args.replication, replication_policy=args.policy
        ),
        seed=args.seed,
        faults=schedule,
    )

    assert replicated.fault_log is not None
    print(replicated.fault_log.render())
    print()
    print(
        summary_table(
            {"no replication": baseline, f"{args.replication}-way": replicated},
            title="Same workload, same faults",
        )
    )
    print()
    for name, result in (
        ("no replication", baseline),
        (f"{args.replication}-way", replicated),
    ):
        print(
            f"{name}: {result.requests_failed_over} failed over, "
            f"{result.requests_unroutable} unroutable, "
            f"{result.repairs_completed} repairs "
            f"({result.repair_bytes_copied / 1e6:.0f} MB recopied), "
            f"{result.under_replicated_files} files under-replicated at end"
        )


def _cmd_meanfield(args: argparse.Namespace) -> None:
    """Closed-form Table-II sweeps, optionally validated against the sim."""
    import json

    from repro.analysis.meanfield import analyze, cross_validate
    from repro.core import EEVFSConfig
    from repro.experiments.sweeps import SWEEPS, _config_for, _workload_for

    header = (
        f"{'sweep':<16}{'value':>8}{'hit':>8}{'PF kJ':>10}{'NPF kJ':>10}"
        f"{'saved':>8}{'trans':>8}{'resp s':>8}"
    )
    print(header)
    print("-" * len(header))
    rows = []
    for sweep, (_, values) in SWEEPS.items():
        for value in values:
            workload = _workload_for(sweep, value, args.requests)
            config = _config_for(sweep, value, EEVFSConfig())
            result = analyze(workload, config=config)
            print(
                f"{sweep:<16}{value!s:>8}{result.hit_rate:>8.3f}"
                f"{result.pf_energy_j / 1e3:>10.1f}"
                f"{result.npf_energy_j / 1e3:>10.1f}"
                f"{result.savings_fraction:>8.1%}"
                f"{result.transitions:>8.1f}"
                f"{result.mean_response_s:>8.3f}"
            )
            rows.append(
                {
                    "sweep": sweep,
                    "value": value,
                    "hit_rate": result.hit_rate,
                    "pf_energy_j": result.pf_energy_j,
                    "npf_energy_j": result.npf_energy_j,
                    "savings_fraction": result.savings_fraction,
                    "transitions": result.transitions,
                    "mean_response_s": result.mean_response_s,
                    "duration_s": result.duration_s,
                }
            )
    payload: dict = {"schema": "eevfs-meanfield/1", "points": rows}
    if args.validate:
        print("\nvalidating against the discrete simulator (runs every pair)...")
        report = cross_validate(n_requests=args.requests, seed=args.seed)
        for p in report.points:
            print(
                f"{p.sweep:<16}{p.value!s:>8}"
                f"  pf_err={p.pf_energy_error:+7.2%}"
                f"  npf_err={p.npf_energy_error:+7.2%}"
                f"  hit_err={p.hit_rate_error:+.3f}"
            )
        print(
            f"\nmax |energy error| {report.max_energy_error:.2%}  "
            f"speedup {report.speedup:.0f}x vs discrete"
        )
        payload["validation"] = {
            "max_energy_error": report.max_energy_error,
            "speedup": report.speedup,
            "points": [
                {
                    "sweep": p.sweep,
                    "value": p.value,
                    "pf_energy_error": p.pf_energy_error,
                    "npf_energy_error": p.npf_energy_error,
                    "hit_rate_error": p.hit_rate_error,
                }
                for p in report.points
            ],
        }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwritten to {args.json}")


def _traced_run(args: argparse.Namespace):
    """Run the default paper workload with observability attached."""
    import numpy as np

    from repro.core import EEVFSConfig, run_eevfs
    from repro.traces.synthetic import SyntheticWorkload, generate_synthetic_trace

    workload_trace = args.trace
    if workload_trace is None:
        workload_trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=args.requests),
            rng=np.random.default_rng(1),
        )
    config = EEVFSConfig(prefetch_enabled=not getattr(args, "npf", False))
    return run_eevfs(workload_trace, config, seed=args.seed, obs=True)


def _cmd_trace(args: argparse.Namespace) -> None:
    """Run a traced paper workload and export the span trace."""
    from repro.obs import write_chrome_trace, write_series_csv, write_spans_jsonl

    result = _traced_run(args)
    run_trace = result.trace
    assert run_trace is not None  # obs=True guarantees a snapshot
    events = write_chrome_trace(run_trace, args.out)
    print(
        f"chrome trace: {args.out} ({events} events; load in "
        f"https://ui.perfetto.dev or chrome://tracing)"
    )
    if args.jsonl:
        spans = write_spans_jsonl(run_trace, args.jsonl)
        print(f"span dump:    {args.jsonl} ({spans} spans)")
    if args.csv:
        rows = write_series_csv(run_trace, args.csv)
        print(f"time series:  {args.csv} ({rows} samples)")
    print(
        f"\n{len(run_trace.spans)} spans over {run_trace.duration_s:.1f}s "
        f"simulated; kinds:"
    )
    for kind in run_trace.span_kinds():
        print(f"  {kind:<18s} x{len(run_trace.spans_of(kind))}")


def _cmd_profile(args: argparse.Namespace) -> None:
    """Run a traced paper workload and print busy-time attribution."""
    from repro.obs import profile_trace

    result = _traced_run(args)
    assert result.trace is not None
    print(profile_trace(result.trace).render())


def _cmd_trace_gen(args: argparse.Namespace) -> None:
    import numpy as np

    from repro.traces import write_trace
    from repro.traces.berkeley import BerkeleyWebWorkload, generate_berkeley_like_trace
    from repro.traces.nonstationary import DriftingWorkload, generate_drifting_trace
    from repro.traces.synthetic import MB, SyntheticWorkload, generate_synthetic_trace

    rng = np.random.default_rng(args.seed)
    if args.kind == "synthetic":
        trace = generate_synthetic_trace(
            SyntheticWorkload(
                n_requests=args.requests,
                mu=args.mu,
                data_size_bytes=int(args.size_mb * MB),
                inter_arrival_s=args.inter_arrival_ms / 1000.0,
            ),
            rng=rng,
        )
    elif args.kind == "berkeley":
        trace = generate_berkeley_like_trace(
            BerkeleyWebWorkload(n_requests=args.requests), rng=rng
        )
    else:  # drifting
        trace = generate_drifting_trace(
            DriftingWorkload(n_requests=args.requests), rng=rng
        )
    write_trace(trace, args.path)
    print(
        f"wrote {trace.n_requests} requests over {trace.n_files} files "
        f"({trace.duration_s:.0f} s) to {args.path}"
    )


def _cmd_trace_stats(args: argparse.Namespace) -> None:
    from repro.traces.stats import summarize

    for key, value in summarize(args.trace).items():
        print(f"{key:22s} {value}")


def build_parser() -> argparse.ArgumentParser:
    from repro.core.config import default_cluster

    parser = argparse.ArgumentParser(
        prog="eevfs",
        description="Reproduce the EEVFS (ICPP 2010) evaluation.",
    )
    parser.add_argument(
        "--requests", type=_positive_int, default=1000, help="trace length"
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for experiment fan-out (default: one per CPU)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I and II").set_defaults(
        func=_cmd_tables
    )
    figures = sub.add_parser("figures", help="regenerate Figs. 3-6")
    figures.add_argument(
        "figures", nargs="*", choices=["3", "4", "5", "6"], help="subset to run"
    )
    figures.add_argument("--out", help="directory for CSV/JSON export")
    figures.add_argument(
        "--chart", action="store_true", help="also draw ASCII bar charts"
    )
    figures.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="export format"
    )
    figures.set_defaults(func=_cmd_figures)
    sub.add_parser("baselines", help="EEVFS vs MAID/PDC/always-on").set_defaults(
        func=_cmd_baselines
    )
    sub.add_parser("ablations", help="extension studies").set_defaults(
        func=_cmd_ablations
    )
    sub.add_parser(
        "verify", help="run every reproduction shape check (pass/fail)"
    ).set_defaults(func=_cmd_verify)
    report = sub.add_parser("report", help="full Markdown reproduction report")
    report.add_argument("--out", help="output file (default: stdout)")
    report.set_defaults(func=_cmd_report)
    comparer = sub.add_parser(
        "compare", help="PF vs NPF deep dive (breakdowns, wear)"
    )
    comparer.add_argument(
        "--config",
        type=_experiment_config,
        help="experiment JSON (see repro.core.configio)",
    )
    comparer.set_defaults(func=_cmd_compare)
    wear = sub.add_parser("wear", help="start/stop wear projection (§VI-B)")
    wear.add_argument("--prefetch", type=int, default=70, help="prefetch depth K")
    wear.set_defaults(func=_cmd_wear)
    faults = sub.add_parser(
        "faults", help="fault drill: availability and energy under failures"
    )
    faults.add_argument(
        "--fail-node",
        default="node3",
        choices=[node.name for node in default_cluster().storage_nodes],
        metavar="NODE",
        help="node to crash (default node3)",
    )
    faults.add_argument(
        "--at", type=float, default=60.0, help="crash time, seconds into the trace"
    )
    faults.add_argument(
        "--repair-at", type=float, default=None, help="optional node repair time"
    )
    faults.add_argument(
        "--mtbf",
        type=float,
        default=None,
        help="instead: exponential per-disk failures with this MTBF (s)",
    )
    faults.add_argument(
        "--mttr", type=float, default=120.0, help="repair time for --mtbf faults"
    )
    faults.add_argument(
        "--replication", type=int, default=2, help="replication factor to compare"
    )
    faults.add_argument(
        "--policy",
        default="round_robin",
        choices=["round_robin", "popularity"],
        help="replica placement policy",
    )
    faults.add_argument(
        "--metadata-drill",
        action="store_true",
        help="instead: metadata-plane chaos drill (leader crash per shard)",
    )
    faults.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count for --metadata-drill (default 4)",
    )
    faults.add_argument(
        "--meta-replicas",
        type=int,
        nargs="+",
        default=[1, 3],
        metavar="N",
        help="replica counts to compare in --metadata-drill (default: 1 3)",
    )
    faults.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the drill's determinism fingerprint JSON to PATH",
    )
    faults.set_defaults(func=_cmd_faults)
    metaplane = sub.add_parser(
        "metaplane", help="metadata-plane shard x replica availability sweep"
    )
    metaplane.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        metavar="N",
        help="shard counts to sweep (default: 1 2 4)",
    )
    metaplane.add_argument(
        "--replicas",
        type=int,
        nargs="+",
        default=[1, 3],
        metavar="N",
        help="replica counts to sweep (default: 1 3)",
    )
    metaplane.set_defaults(func=_cmd_metaplane)
    online = sub.add_parser(
        "online", help="oracle-vs-online prefetching ablation (repro.online)"
    )
    online.add_argument(
        "--sweeps",
        nargs="+",
        metavar="SWEEP",
        choices=["data_size", "mu", "inter_arrival", "prefetch_count", "traces"],
        help=(
            "subset of the corpus (default: all four Table-II sweeps plus "
            "the berkeley/drifting trace studies)"
        ),
    )
    online.add_argument(
        "--estimator",
        choices=["ema", "cms"],
        default="ema",
        help="streaming estimator: exact EMA or Count-Min Sketch",
    )
    online.add_argument(
        "--series",
        action="store_true",
        help="also print the first point's controller trajectory",
    )
    online.add_argument(
        "--cost-gate",
        action="store_true",
        help=(
            "veto replans whose estimated migration energy exceeds the "
            "projected next-epoch savings (online_replan_cost_gate)"
        ),
    )
    online.add_argument(
        "--json",
        metavar="PATH",
        help="write the determinism fingerprint (canonical JSON) to PATH",
    )
    online.set_defaults(func=_cmd_online)
    ssd = sub.add_parser(
        "ssd", help="SSD vs HDD buffer-tier sweep (repro.backend)"
    )
    ssd.add_argument(
        "--capacities-mb",
        nargs="+",
        type=int,
        default=[16, 32, 64],
        metavar="MB",
        help="buffer-tier logical capacities to sweep",
    )
    ssd.add_argument(
        "--channels",
        nargs="+",
        type=int,
        default=[1, 2, 4],
        metavar="N",
        help="SSD channel counts to sweep",
    )
    ssd.add_argument(
        "--gc",
        nargs="+",
        type=float,
        default=[0.10],
        metavar="FRAC",
        help="GC free-block reserve fractions to sweep",
    )
    ssd.add_argument(
        "--write-fraction",
        type=float,
        default=0.4,
        help="workload write share (rewrite churn drives GC and WA)",
    )
    ssd.add_argument(
        "--json",
        metavar="PATH",
        help="write the determinism fingerprint (canonical JSON) to PATH",
    )
    ssd.set_defaults(func=_cmd_ssd)
    meanfield = sub.add_parser(
        "meanfield",
        help="closed-form PF/NPF estimates (no discrete simulation)",
    )
    meanfield.add_argument(
        "--validate",
        action="store_true",
        help="also run the discrete simulator and report per-point errors",
    )
    meanfield.add_argument(
        "--json", metavar="PATH", help="write the table (and validation) to PATH"
    )
    meanfield.set_defaults(func=_cmd_meanfield)
    tracer = sub.add_parser(
        "trace", help="traced run: export Chrome trace JSON / JSONL / CSV"
    )
    tracer.add_argument(
        "--out", default="eevfs_trace.json", help="Chrome trace-event JSON path"
    )
    tracer.add_argument("--jsonl", help="also dump one JSON object per span")
    tracer.add_argument("--csv", help="also dump sampled telemetry series (CSV)")
    tracer.add_argument(
        "--trace", type=_trace_file, help="replay this trace file instead"
    )
    tracer.add_argument(
        "--npf", action="store_true", help="trace the NPF (no-prefetch) mode"
    )
    tracer.set_defaults(func=_cmd_trace)
    profiler = sub.add_parser(
        "profile", help="sim-time profile: busy time per component"
    )
    profiler.add_argument(
        "--trace", type=_trace_file, help="replay this trace file instead"
    )
    profiler.add_argument(
        "--npf", action="store_true", help="profile the NPF (no-prefetch) mode"
    )
    profiler.set_defaults(func=_cmd_profile)
    gen = sub.add_parser("trace-gen", help="generate a workload trace file")
    gen.add_argument("kind", choices=["synthetic", "berkeley", "drifting"])
    gen.add_argument("path", help="output trace file")
    gen.add_argument("--mu", type=float, default=1000.0)
    gen.add_argument("--size-mb", type=float, default=10.0)
    gen.add_argument("--inter-arrival-ms", type=float, default=700.0)
    gen.set_defaults(func=_cmd_trace_gen)
    stats = sub.add_parser("trace-stats", help="summarise a trace file")
    stats.add_argument(
        "trace",
        metavar="path",
        type=_trace_file,
        help="trace file (see repro.traces.logio)",
    )
    stats.set_defaults(func=_cmd_trace_stats)
    lint = sub.add_parser(
        "lint", help="simlint: determinism & simulation-invariant checks"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        type=_existing_path,
        help="files/directories to check (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--fix", action="store_true", help="apply mechanical fixes in place"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="describe the rules and exit"
    )
    lint.add_argument(
        "--races",
        action="store_true",
        help="run the schedule-perturbation race suite instead of static checks",
    )
    lint.add_argument(
        "--race-seeds",
        action="append",
        metavar="SEEDS",
        help="comma-separated chaos-scheduler seeds (default: 101,303)",
    )
    lint.add_argument(
        "--race-requests",
        type=int,
        default=150,
        metavar="N",
        help="requests per race-suite scenario (default: 150)",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
