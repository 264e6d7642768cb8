"""Command-line interface: ``python -m repro.cli <command>``.

Commands regenerate the paper's artifacts (tables, figures) and run the
extension studies.  ``--requests`` scales the trace length (the paper
uses 1000); ``--seed`` controls all stochastic components.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Optional, Sequence

from repro.experiments.study import records, run_study
from repro.experiments.tables import table1, table2
from repro.metrics.report import format_table, summary_table
from repro.parallel import TraceSpec
from repro.sim.rng import RandomStreams


# -- argument types: bad input becomes an argparse error (exit 2) -------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _checked(
    parse: Callable[[str], Any], check: Callable[[Any], object]
) -> Callable[[str], Any]:
    """An argparse type: *parse* the text, then hand the value to *check*,
    which builds the object that owns its bound, so the CLI repeats no
    bound.  A ``ValueError`` or ``OverflowError`` (``int(inf)``) from
    either becomes an argparse error."""

    def convert(text: str) -> Any:
        try:
            value = parse(text)
            check(value)
        except (ValueError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return convert


def _config_knob(
    field: str, parse: Callable[[str], Any] = int, **context: Any
) -> Callable[[str], Any]:
    """Type of a flag that sets one :class:`EEVFSConfig` field, checked
    in a config that also sets the fields in *context*."""
    from repro.core.config import EEVFSConfig

    return _checked(parse, lambda value: EEVFSConfig(**context, **{field: value}))


def _figure_number(text: str) -> str:
    # A type rather than ``choices``: argparse checks the empty default
    # of an ``nargs="*"`` positional against its choices and fails.
    if text not in ("3", "4", "5", "6"):
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from 3, 4, 5, 6)"
        )
    return text


def _seed_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed list: {text!r}") from None


def _existing_path(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"no such file or directory: {text!r}")
    return text


def _output_file(text: str) -> str:
    """A file the command writes: checked before any run, since most
    commands write only after the whole study."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory: {text!r}")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no such directory: {parent!r}")
    return text


def _output_dir(text: str) -> str:
    """A directory the command creates, with its parents, if missing: the
    nearest existing path on the way up must be a directory."""
    existing = os.path.abspath(text)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise argparse.ArgumentTypeError(f"not a directory: {existing!r}")
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


def _default_trace(requests: int) -> TraceSpec:
    """The default paper workload: the Table-II synthetic trace, rng seed 1."""
    from repro.traces.synthetic import SyntheticWorkload

    return TraceSpec(workload=SyntheticWorkload(n_requests=requests))


def _write_records(path: str, tree: dict, noun: str = "Fingerprint") -> None:
    """Write every run of *tree* (a nested dict of results) as canonical
    JSON records to *path*, and say so."""
    with open(path, "w") as handle:
        handle.write(records(tree))
    print(f"\n{noun} written to {path}")


def _cmd_tables(args: argparse.Namespace) -> None:
    print(table1())
    print()
    print(table2())


def _cmd_figures(args: argparse.Namespace) -> None:
    from repro.experiments.export import write_figure_csv, write_figure_json
    from repro.experiments.figures import (
        figure3,
        figure4,
        figure5,
        figure6,
        figure6_study,
        render_figure6,
    )
    from repro.experiments.sweeps import sweep_study

    wanted = set(args.figures or ["3", "4", "5", "6"])
    study = {}
    if wanted & {"3", "4", "5"}:
        study.update(sweep_study(n_requests=args.requests, seed=args.seed))
    if "6" in wanted:
        study.update(figure6_study(n_requests=args.requests, seed=args.seed))
    results = run_study(study, jobs=args.jobs)
    produced = []
    for key, build in (("3", figure3), ("4", figure4), ("5", figure5)):
        if key in wanted:
            figure = build(results)
            print(figure.render(), end="\n\n")
            if args.chart:
                from repro.metrics.chart import panel_chart

                for letter in sorted(figure.panels):
                    panel = figure.panels[letter]
                    names = [n for n in panel.series if not n.endswith("_pct")]
                    print(panel_chart(panel, series_names=names), end="\n\n")
            produced.append(figure)
    if "6" in wanted:
        print(render_figure6(figure6(results)))
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for figure in produced:
            if args.format == "json":
                write_figure_json(figure, out / f"{figure.figure.lower()}.json")
            else:
                write_figure_csv(figure, out)
        if "6" in wanted:
            write_figure_json(figure6(results), out / "fig6.json")
        print(f"\nexported to {out}/", flush=True)


def _cmd_baselines(args: argparse.Namespace) -> None:
    from repro.experiments.baseline_suite import baseline_study, BASELINES

    study = baseline_study(n_requests=args.requests, seed=args.seed)
    print(
        summary_table(
            run_study(study, jobs=args.jobs)[BASELINES],
            title="Baseline shoot-out (defaults: 10 MB, MU=1000, IA=700 ms, K=70)",
        )
    )


def _cmd_ablations(args: argparse.Namespace) -> None:
    from repro.experiments.ablations import ablation_study, render_ablation

    names = ("idle_threshold", "hints", "disks_per_node", "window_predictor", "replay_mode")
    study = {}
    for name in names:
        # The replay-mode ablation runs at most 500 requests.
        n_requests = min(args.requests, 500) if name == "replay_mode" else args.requests
        study.update(ablation_study(name, n_requests=n_requests, seed=args.seed))
    results = run_study(study, jobs=args.jobs)
    print("\n\n".join(render_ablation(name, results) for name in names))


def _cmd_compare(args: argparse.Namespace) -> None:
    """Deep-dive PF vs NPF at the defaults: totals, breakdowns, wear."""
    from repro.core.config import default_cluster
    from repro.experiments.study import run_pair
    from repro.metrics.breakdown import breakdown_table, compare_breakdowns
    from repro.metrics.wear import wear_report

    config, cluster = args.config or (None, None)
    cluster = cluster or default_cluster()
    trace = _default_trace(args.requests).generate()
    comparison = run_pair(trace, config, cluster, seed=args.seed)
    pf, npf = comparison.pf, comparison.npf
    print(
        f"savings {comparison.energy_savings_pct:.1f} %, "
        f"penalty {comparison.response_penalty_pct:.1f} %, "
        f"transitions {pf.transitions}, hit rate {pf.buffer_hit_rate:.0%}\n"
    )
    print(compare_breakdowns(pf, npf))
    print()
    print(breakdown_table(pf))
    worst = wear_report(pf, cluster).worst
    if worst is not None:
        print(
            f"\nwear: worst drive {worst.name} reaches its rated start/stop "
            f"budget in {worst.years_to_limit:.2f} years at this duty cycle"
        )
    else:
        print("\nwear: no spin-ups occurred; start/stop budget untouched")


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.experiments.paper import generate_report

    report = generate_report(n_requests=args.requests, seed=args.seed, jobs=args.jobs)
    if args.out:
        report.write(args.out)
        print(f"report written to {args.out}")
    else:
        print(report.markdown)


def _cmd_verify(args: argparse.Namespace) -> None:
    from repro.experiments.figures import figure6_study
    from repro.experiments.sweeps import sweep_study
    from repro.experiments.validation import (
        all_passed,
        render_validation,
        validate_reproduction,
    )

    study = {
        **sweep_study(n_requests=args.requests, seed=args.seed),
        **figure6_study(n_requests=args.requests, seed=args.seed),
    }
    checks = validate_reproduction(run_study(study, jobs=args.jobs))
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
            seed for part in (args.race_seeds or []) for seed in part
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
    from repro.core import default_cluster, EEVFSConfig, run_eevfs
    from repro.metrics.wear import wear_report

    trace = _default_trace(args.requests).generate()
    result = run_eevfs(trace, EEVFSConfig(prefetch_files=args.prefetch), seed=args.seed)
    report = wear_report(result, default_cluster())
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
    from repro.experiments.metaplane import metaplane_study
    from repro.metrics.report import metaplane_table

    shards = args.shards or 4
    study = metaplane_study(
        shard_counts=(shards,),
        replica_counts=args.meta_replicas or [1, 3],
        n_requests=args.requests,
        seed=args.seed,
    )
    results = run_study(study, jobs=args.jobs)[shards]
    last = next(reversed(results.values()))
    assert last.fault_log is not None
    print(last.fault_log.render())
    print()
    print(
        metaplane_table(
            results,
            title=(
                f"Metadata-plane leader-crash drill "
                f"({shards} shards, Berkeley trace)"
            ),
        )
    )
    if args.json:
        _write_records(args.json, results, noun="fingerprint")


def _cmd_metaplane(args: argparse.Namespace) -> None:
    """Shard x replica availability sweep (the EXPERIMENTS.md table)."""
    from repro.experiments.metaplane import metaplane_rows, metaplane_study

    study = metaplane_study(
        shard_counts=args.shards,
        replica_counts=args.replicas,
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
            metaplane_rows(run_study(study, jobs=args.jobs)),
            title="Metadata plane under one leader crash per shard",
        )
    )


def _cmd_online(args: argparse.Namespace) -> None:
    """Oracle-vs-online ablation: how much savings survives without
    hindsight?  Optionally writes every run's record (--json)."""
    from repro.core import EEVFSConfig
    from repro.experiments.online import (
        ABLATION_HEADERS,
        online_rows,
        online_study,
        retention_summary,
    )
    from repro.experiments.study import group
    from repro.metrics.report import online_series, online_table

    config = EEVFSConfig(online_replan_cost_gate=True) if args.cost_gate else None
    study = online_study(
        sweeps=args.sweeps,
        n_requests=args.requests,
        seed=args.seed,
        estimator=args.estimator,
        config=config,
    )
    results = run_study(study, jobs=args.jobs)
    names = dict.fromkeys(sweep for sweep, _ in results)
    sweeps = {sweep: group(results, sweep) for sweep in names}
    for sweep, points in sweeps.items():
        print(
            format_table(
                ABLATION_HEADERS,
                online_rows(points),
                title=f"Oracle vs online ({args.estimator}): {sweep} sweep",
            )
        )
        print()
    summary = retention_summary(results)
    print(
        f"Across {summary['points']:.0f} points: oracle saves "
        f"{summary['oracle_savings_mean_pct']:.1f}% vs NPF, online saves "
        f"{summary['online_savings_mean_pct']:.1f}% -- "
        f"{100 * summary['retention_mean']:.0f}% of the oracle's savings "
        f"retained without hindsight."
    )
    if args.series:
        (sweep, value), first = next(iter(results.items()))
        print()
        print(
            online_series(
                first["online"], title=f"Controller trajectory ({sweep}={value})"
            )
        )
        print()
        print(online_table(first, title="Controller activity (first point)"))
    if args.json:
        _write_records(args.json, sweeps)


def _cmd_ssd(args: argparse.Namespace) -> None:
    """SSD buffer-tier sweep: capacity x channels x GC reserve, PF/NPF
    per point, HDD-buffer reference pairs.  Optionally writes every
    run's record (--json)."""
    from repro.experiments.ssd import SSD_HEADERS, ssd_rows, ssd_study
    from repro.experiments.study import compared

    study = ssd_study(
        capacities_mb=args.capacities_mb,
        channels=args.channels,
        gc_fractions=args.gc,
        n_requests=args.requests,
        write_fraction=args.write_fraction,
        seed=args.seed,
    )
    results = run_study(study, jobs=args.jobs)
    print(
        format_table(
            SSD_HEADERS,
            ssd_rows(results),
            title="SSD vs HDD buffer tier (PF vs NPF per point)",
        )
    )
    comparisons = compared(results)
    ssd = [(point, c) for point, c in comparisons.items() if point[0] == "ssd"]
    hdd = [c for point, c in comparisons.items() if point[0] == "hdd"]
    if ssd and hdd:
        (_, capacity_mb, channels, _), best = max(
            ssd, key=lambda item: item[1].energy_savings_pct
        )
        reference = max(c.energy_savings_pct for c in hdd)
        print(
            f"\nBest SSD point (cap={capacity_mb}MB, "
            f"ch={channels}) saves {best.energy_savings_pct:.1f}% vs NPF "
            f"(HDD buffer best: {reference:.1f}%); "
            f"WA={best.pf.ssd_write_amplification:.2f}, "
            f"max erase count {best.pf.ssd_max_erase_count}."
        )
    if args.json:
        _write_records(
            args.json,
            {
                f"{backend}:cap={cap}:ch={ch}:gc={gc}": runs
                for (backend, cap, ch, gc), runs in results.items()
            },
        )


def _cmd_faults(args: argparse.Namespace) -> None:
    """Fault drill: one workload, one fault schedule, with and without
    replication -- what does riding out failures cost in energy?"""
    # Each drill's flags default to None, so a flag of the drill that is
    # not running is an error rather than silently ignored.
    crash = {"--fail-node": args.fail_node, "--at": args.at, "--repair-at": args.repair_at}
    node_drill = {
        **crash,
        "--mtbf": args.mtbf,
        "--mttr": args.mttr,
        "--replication": args.replication,
        "--policy": args.policy,
    }
    meta_drill = {
        "--shards": args.shards,
        "--meta-replicas": args.meta_replicas,
        "--json": args.json,
    }
    if args.metadata_drill:
        given = [flag for flag, value in node_drill.items() if value is not None]
        if given:
            args.parser.error(f"argument --metadata-drill: not allowed with {', '.join(given)}")
        _cmd_metadata_drill(args)
        return
    given = [flag for flag, value in meta_drill.items() if value is not None]
    if given:
        args.parser.error(f"argument {given[0]}: requires --metadata-drill")
    if args.mttr is not None and args.mtbf is None:
        args.parser.error("argument --mttr: requires --mtbf")
    from repro.core import EEVFSConfig
    from repro.core.config import default_cluster
    from repro.faults import FaultSchedule
    from repro.parallel import JobSpec

    schedule = FaultSchedule()
    if args.mtbf is not None:
        given = [flag for flag, value in crash.items() if value is not None]
        if given:
            args.parser.error(f"argument --mtbf: not allowed with {', '.join(given)}")
        cluster = default_cluster()
        targets = [
            f"{node.name}/data{i}"
            for node in cluster.storage_nodes
            for i in range(node.n_data_disks)
        ]
        horizon_s = _default_trace(args.requests).generate().duration_s
        # A one-request trace lasts 0 s and has no time to draw a fault
        # in: the drill runs on the empty schedule and warns.
        if horizon_s > 0:
            schedule.exponential_faults(
                targets, mtbf_s=args.mtbf, horizon_s=horizon_s, mttr_s=args.mttr or 120.0
            )
    else:
        try:
            schedule.node_fail(
                args.fail_node or "node3",
                at=60.0 if args.at is None else args.at,
                until=args.repair_at,
            )
        except ValueError as exc:
            args.parser.error(f"argument --repair-at: {exc}")

    factor = args.replication or 2
    replicated = f"{factor}-way"
    configs = {
        "no replication": EEVFSConfig(),
        replicated: EEVFSConfig(
            replication_factor=factor, replication_policy=args.policy or "round_robin"
        ),
    }
    trace = _default_trace(args.requests)
    study = {
        "faults": {
            name: JobSpec(trace=trace, config=config, seed=args.seed, faults=schedule)
            for name, config in configs.items()
        }
    }
    results = run_study(study, jobs=args.jobs)["faults"]

    fault_log = results[replicated].fault_log
    assert fault_log is not None
    if not fault_log:
        print(
            f"warning: no fault fired: the replay ended "
            f"{results[replicated].duration_s:.1f} s into the trace; crash a node "
            f"earlier with --at, or draw random disk failures with --mtbf",
            file=sys.stderr,
        )
    print(fault_log.render())
    print()
    print(summary_table(results, title="Same workload, same faults"))
    print()
    for name, result in results.items():
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
    """Replay the ``--trace`` file, or else the default paper workload,
    with observability attached.  An empty trace file replays nothing."""
    from repro.core import EEVFSConfig, run_eevfs

    workload_trace = args.trace
    if workload_trace is None:
        workload_trace = _default_trace(args.requests).generate()
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

    # The synthetic shape flags default to unset, so one given with a
    # kind that does not read it is an error rather than silently ignored.
    given = [flag for flag in ("mu", "size_mb", "inter_arrival_ms") if flag in vars(args)]
    if given and args.kind != "synthetic":
        args.parser.error(f"argument --{given[0].replace('_', '-')}: not allowed with {args.kind}")
    rng = np.random.default_rng(args.seed)
    if args.kind == "synthetic":
        # Each flag was checked alone; the arrival span also needs the
        # real --requests.
        try:
            workload = SyntheticWorkload(
                n_requests=args.requests,
                mu=getattr(args, "mu", 1000.0),
                data_size_bytes=int(getattr(args, "size_mb", 10.0) * MB),
                inter_arrival_s=getattr(args, "inter_arrival_ms", 700.0) / 1000.0,
            )
        except ValueError as exc:
            args.parser.error(f"argument --inter-arrival-ms: {exc}")
        trace = generate_synthetic_trace(workload, rng=rng)
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
    from repro.faults.schedule import ExponentialFaults, FaultSchedule
    from repro.parallel.pool import resolve_jobs
    from repro.replication.policy import plan_replicas, REPLICATION_POLICIES
    from repro.traces.synthetic import MB, SyntheticWorkload

    node_names = [node.name for node in default_cluster().storage_nodes]

    parser = argparse.ArgumentParser(
        prog="eevfs",
        description="Reproduce the EEVFS (ICPP 2010) evaluation.",
    )
    parser.add_argument(
        "--requests", type=_positive_int, default=1000, help="trace length"
    )
    parser.add_argument(
        "--seed", type=_checked(int, RandomStreams), default=0, help="simulation seed (>= 0)"
    )
    parser.add_argument(
        "--jobs",
        type=_checked(int, lambda jobs: resolve_jobs(jobs, 1)),
        default=None,
        help="worker processes for experiment fan-out (default: one per CPU)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I and II").set_defaults(
        func=_cmd_tables
    )
    figures = sub.add_parser("figures", help="regenerate Figs. 3-6")
    figures.add_argument(
        "figures",
        nargs="*",
        type=_figure_number,
        metavar="{3,4,5,6}",
        help="subset to run (default: all four)",
    )
    figures.add_argument("--out", type=_output_dir, help="directory for CSV/JSON export")
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
    report.add_argument("--out", type=_output_file, help="output file (default: stdout)")
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
    wear.add_argument(
        "--prefetch",
        type=_config_knob("prefetch_files"),
        default=70,
        help="prefetch depth K",
    )
    wear.set_defaults(func=_cmd_wear)
    faults = sub.add_parser(
        "faults", help="fault drill: availability and energy under failures"
    )
    faults.add_argument(
        "--fail-node",
        choices=node_names,
        metavar="NODE",
        help="node to crash (default node3)",
    )
    faults.add_argument(
        "--at",
        type=_checked(float, lambda at: FaultSchedule().node_fail("node", at=at)),
        help="crash time, seconds into the trace (default 60)",
    )
    faults.add_argument(
        "--repair-at",
        type=_checked(float, lambda at: FaultSchedule().node_repair("node", at=at)),
        default=None,
        help="optional node repair time",
    )
    faults.add_argument(
        "--mtbf",
        type=_checked(
            float,
            lambda mtbf: ExponentialFaults(
                ("disk",), mtbf_s=mtbf, mttr_s=None, horizon_s=1.0
            ),
        ),
        default=None,
        help=(
            "instead of the node crash: exponential per-disk failures with "
            "this MTBF (s)"
        ),
    )
    faults.add_argument(
        "--mttr",
        type=_checked(
            float,
            lambda mttr: ExponentialFaults(
                ("disk",), mtbf_s=1.0, mttr_s=mttr, horizon_s=1.0
            ),
        ),
        default=None,
        help="repair time for --mtbf faults",
    )
    faults.add_argument(
        "--replication",
        type=_checked(int, lambda factor: plan_replicas((), {}, node_names, factor)),
        default=None,
        help="replication factor to compare",
    )
    faults.add_argument(
        "--policy",
        default=None,
        choices=REPLICATION_POLICIES,
        help="replica placement policy",
    )
    faults.add_argument(
        "--metadata-drill",
        action="store_true",
        help="instead: metadata-plane chaos drill (leader crash per shard)",
    )
    faults.add_argument(
        "--shards",
        type=_config_knob("metadata_shards"),
        default=None,
        help="shard count for --metadata-drill (default 4)",
    )
    faults.add_argument(
        "--meta-replicas",
        type=_config_knob("metadata_replicas"),
        nargs="+",
        default=None,
        metavar="N",
        help="replica counts to compare in --metadata-drill (default: 1 3)",
    )
    faults.add_argument(
        "--json",
        type=_output_file,
        default=None,
        metavar="PATH",
        help="write every drill run's record (canonical JSON) to PATH",
    )
    # The parser, to report a --repair-at no later than --at, or a flag
    # of the drill that is not running.
    faults.set_defaults(func=_cmd_faults, parser=faults)
    metaplane = sub.add_parser(
        "metaplane", help="metadata-plane shard x replica availability sweep"
    )
    metaplane.add_argument(
        "--shards",
        type=_config_knob("metadata_shards"),
        nargs="+",
        default=[1, 2, 4],
        metavar="N",
        help="shard counts to sweep (default: 1 2 4)",
    )
    metaplane.add_argument(
        "--replicas",
        type=_config_knob("metadata_replicas"),
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
        type=_output_file,
        metavar="PATH",
        help="write every run's record (canonical JSON) to PATH",
    )
    online.set_defaults(func=_cmd_online)
    ssd = sub.add_parser(
        "ssd", help="SSD vs HDD buffer-tier sweep (repro.backend)"
    )
    ssd.add_argument(
        "--capacities-mb",
        nargs="+",
        type=_config_knob("ssd_capacity_mb", buffer_backend="ssd"),
        default=[16, 32, 64],
        metavar="MB",
        help="buffer-tier logical capacities to sweep",
    )
    ssd.add_argument(
        "--channels",
        nargs="+",
        type=_config_knob("ssd_channels", buffer_backend="ssd"),
        default=[1, 2, 4],
        metavar="N",
        help="SSD channel counts to sweep",
    )
    ssd.add_argument(
        "--gc",
        nargs="+",
        type=_config_knob("ssd_gc_free_fraction", float, buffer_backend="ssd"),
        default=[0.10],
        metavar="FRAC",
        help="GC free-block reserve fractions to sweep",
    )
    ssd.add_argument(
        "--write-fraction",
        type=_checked(float, lambda share: SyntheticWorkload(write_fraction=share)),
        default=0.4,
        help="workload write share (rewrite churn drives GC and WA)",
    )
    ssd.add_argument(
        "--json",
        type=_output_file,
        metavar="PATH",
        help="write every run's record (canonical JSON) to PATH",
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
        "--json", type=_output_file, metavar="PATH", help="write the table (and validation) to PATH"
    )
    meanfield.set_defaults(func=_cmd_meanfield)
    tracer = sub.add_parser(
        "trace", help="traced run: export Chrome trace JSON / JSONL / CSV"
    )
    tracer.add_argument(
        "--out", type=_output_file, default="eevfs_trace.json", help="Chrome trace-event JSON path"
    )
    tracer.add_argument("--jsonl", type=_output_file, help="also dump one JSON object per span")
    tracer.add_argument("--csv", type=_output_file, help="also dump sampled telemetry series (CSV)")
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
    gen.add_argument("path", type=_output_file, help="output trace file")
    gen.add_argument(
        "--mu", type=_checked(float, lambda mu: SyntheticWorkload(mu=mu)), default=argparse.SUPPRESS
    )
    gen.add_argument(
        "--size-mb",
        type=_checked(
            float, lambda mb: SyntheticWorkload(data_size_bytes=int(mb * MB))
        ),
        default=argparse.SUPPRESS,
    )
    gen.add_argument(
        "--inter-arrival-ms",
        type=_checked(
            float, lambda ms: SyntheticWorkload(inter_arrival_s=ms / 1000.0)
        ),
        default=argparse.SUPPRESS,
    )
    gen.set_defaults(func=_cmd_trace_gen, parser=gen)
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
        type=_seed_list,
        metavar="SEEDS",
        help="comma-separated chaos-scheduler seeds (default: 101,303)",
    )
    lint.add_argument(
        "--race-requests",
        type=_positive_int,
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
