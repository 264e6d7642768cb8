"""Tests for the command-line interface and data export."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.export import (
    figure6_to_dict,
    figure_to_dict,
    write_figure_csv,
    write_figure_json,
)
from repro.experiments.figures import figure3, figure6, figure6_study
from repro.experiments.study import run_study
from repro.experiments.sweeps import sweep_study


@pytest.fixture(scope="module")
def small_sweeps():
    return run_study(sweep_study(n_requests=60))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_subset(self):
        args = build_parser().parse_args(["figures", "3", "6"])
        assert args.figures == ["3", "6"]

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "7"])

    def test_global_options(self):
        args = build_parser().parse_args(["--requests", "50", "--seed", "3", "tables"])
        assert args.requests == 50
        assert args.seed == 3


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out

    def test_figure6(self, capsys):
        assert main(["--requests", "60", "figures", "6"]) == 0
        assert "Berkeley" in capsys.readouterr().out

    def test_baselines(self, capsys):
        assert main(["--requests", "60", "baselines"]) == 0
        out = capsys.readouterr().out
        assert "MAID" in out and "PDC" in out

    def test_faults_warns_when_no_fault_fired(self, capsys):
        # The default crash at 60 s lands after a 30-request replay ends.
        main(["--requests", "30", "--jobs", "1", "faults"])
        err = capsys.readouterr().err
        assert err.startswith("warning: no fault fired: the replay ended ")
        assert err.count("\n") == 1
        assert "--at" in err and "--mtbf" in err
        main(["--requests", "30", "--jobs", "1", "faults", "--at", "5"])
        out, err = capsys.readouterr()
        assert "node_fail" in out and "node3" in out
        assert "warning" not in err
        # One request spans 0 s: no time to draw a random failure in.
        assert main(["--requests", "1", "--jobs", "1", "faults", "--mtbf", "100"]) == 0
        assert capsys.readouterr().err.startswith("warning: no fault fired: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults"],
            ["faults", "--mtbf", "100"],
            ["faults", "--metadata-drill"],
            ["compare"],
            ["wear"],
            ["profile"],
            ["trace"],
            ["metaplane", "--shards", "1", "--replicas", "1"],
            ["online", "--sweeps", "traces"],
            ["ssd", "--capacities-mb", "16", "--channels", "1"],
        ],
        ids=lambda argv: "-".join(argv).replace("--", ""),
    )
    def test_one_request_trace_runs(self, argv, tmp_path, monkeypatch, capsys):
        """Commands whose inputs depend on the trace's length or duration
        finish on the shortest trace there is."""
        monkeypatch.chdir(tmp_path)  # `trace` writes its file here
        assert main(["--requests", "1", "--jobs", "1", *argv]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_trace_stats(self, tmp_path, capsys):
        from repro.traces import generate_synthetic_trace, write_trace
        from repro.traces.synthetic import SyntheticWorkload

        trace = generate_synthetic_trace(
            SyntheticWorkload(n_requests=30), rng=np.random.default_rng(0)
        )
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        assert main(["trace-stats", str(path)]) == 0
        assert "working_set" in capsys.readouterr().out

    def test_empty_trace_file_replays_no_requests(self, tmp_path, capsys):
        """A header-only trace is an empty workload, not the default one."""
        path = tmp_path / "empty.trace"
        path.write_text("#eevfs-trace v1\n")
        spans = tmp_path / "spans.jsonl"
        argv = ["--requests", "40", "trace", "--trace", str(path)]
        assert main([*argv, "--out", str(tmp_path / "t.json"), "--jsonl", str(spans)]) == 0
        kinds = {json.loads(line)["kind"] for line in spans.read_text().splitlines()}
        assert "replay" in kinds and "request" not in kinds
        capsys.readouterr()
        assert main(["--requests", "40", "profile", "--trace", str(path)]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert "replay" in rows and "request" not in rows

    def test_bare_figures_runs_all_four(self, capsys):
        assert main(["--requests", "20", "figures"]) == 0
        out = capsys.readouterr().out
        for figure in ("Fig3", "Fig4", "Fig5", "Fig6"):
            assert f"=== {figure}" in out

    def test_figures_export_csv(self, tmp_path, capsys):
        assert main(
            ["--requests", "60", "figures", "6", "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "fig6.json").exists()

    def test_verify(self, capsys):
        assert main(["--requests", "150", "verify"]) == 0
        out = capsys.readouterr().out
        assert "12/12 checks passed" in out

    def test_compare(self, capsys):
        assert main(["--requests", "100", "compare"]) == 0
        out = capsys.readouterr().out
        assert "Energy by component" in out
        assert "wear" in out

    def test_compare_with_config_file(self, tmp_path, capsys):
        from repro.core import EEVFSConfig
        from repro.core.configio import save_experiment_config

        path = save_experiment_config(
            tmp_path / "exp.json", EEVFSConfig(prefetch_files=20)
        )
        assert main(
            ["--requests", "80", "compare", "--config", str(path)]
        ) == 0

    def test_wear(self, capsys):
        assert main(["--requests", "100", "wear", "--prefetch", "40"]) == 0
        assert "worst drive" in capsys.readouterr().out

    def test_figures_chart_flag(self, capsys):
        assert main(["--requests", "60", "figures", "4", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "|" in out  # bars drawn

    def test_report(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["--requests", "60", "report", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# EEVFS reproduction report" in text
        assert "Fig6" in text

    @pytest.mark.parametrize("kind", ["synthetic", "berkeley", "drifting"])
    def test_trace_gen_round_trip(self, tmp_path, kind, capsys):
        from repro.traces import read_trace

        path = tmp_path / f"{kind}.trace"
        assert main(
            ["--requests", "40", "--seed", "2", "trace-gen", kind, str(path)]
        ) == 0
        trace = read_trace(path)
        assert trace.n_requests == 40

    def test_trace_gen_then_stats(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["--requests", "30", "trace-gen", "synthetic", str(path)])
        assert main(["trace-stats", str(path)]) == 0
        assert "working_set" in capsys.readouterr().out


class TestInputErrors:
    """Bad input at the CLI boundary is an argparse error with exit code 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lint", "{tmp}/missing"],
            ["trace-stats", "{tmp}/missing.trace"],
            ["trace-stats", "{tmp}/notes.md"],
            ["trace-stats", "{tmp}/nan.trace"],
            ["trace-stats", "{tmp}/inf.trace"],
            ["compare", "--config", "{tmp}/missing.json"],
            ["--requests", "30", "compare", "--config", "{tmp}/removed-key.json"],
            ["--requests", "30", "compare", "--config", "{tmp}/nan.json"],
            ["--requests", "-5", "trace-gen", "synthetic", "{tmp}/x.trace"],
            ["--seed", "-1", "--requests", "20", "trace-gen", "synthetic", "{tmp}/x.trace"],
            ["faults", "--fail-node", "node99"],
            ["bench"],
            ["--jobs", "0", "baselines"],
            ["wear", "--prefetch", "-1"],
            ["ssd", "--capacities-mb", "0"],
            ["ssd", "--channels", "0"],
            ["ssd", "--gc", "0.7"],
            ["ssd", "--write-fraction", "2"],
            ["faults", "--at", "-5"],
            ["faults", "--repair-at", "-1"],
            ["--requests", "30", "faults", "--at", "1", "--repair-at", "0.5"],
            [
                "--requests", "30", "faults", "--mtbf", "100",
                "--at", "5", "--repair-at", "6", "--fail-node", "node2",
            ],
            ["faults", "--mtbf", "-1"],
            ["faults", "--mtbf", "100", "--mttr", "-1"],
            ["faults", "--replication", "0"],
            ["--requests", "50", "faults", "--replication", "9"],
            ["faults", "--metadata-drill", "--shards", "0"],
            ["faults", "--metadata-drill", "--meta-replicas", "0"],
            ["metaplane", "--shards", "0"],
            ["metaplane", "--replicas", "0"],
            ["trace-gen", "synthetic", "{tmp}/x.trace", "--mu", "-1"],
            ["trace-gen", "synthetic", "{tmp}/x.trace", "--inter-arrival-ms", "-1"],
            ["trace-gen", "synthetic", "{tmp}/x.trace", "--size-mb", "-1"],
            ["lint", "--races", "--race-seeds", "abc"],
            ["lint", "--races", "--race-requests", "0"],
            ["--requests", "30", "faults", "--metadata-drill", "--mtbf", "100"],
            ["--requests", "30", "faults", "--metadata-drill", "--fail-node", "node2"],
            ["--requests", "30", "faults", "--metadata-drill", "--replication", "3"],
            ["--requests", "30", "faults", "--mttr", "5"],
            ["--requests", "30", "faults", "--shards", "2"],
            ["--requests", "30", "faults", "--meta-replicas", "3"],
            ["--requests", "30", "faults", "--json", "{tmp}/drill.json"],
            ["--requests", "30", "trace-gen", "synthetic", "{tmp}/missing/x.trace"],
            ["--requests", "30", "trace", "--out", "{tmp}/missing/t.json"],
            ["--requests", "30", "trace", "--out", "{tmp}/t.json", "--jsonl", "{tmp}/missing/s"],
            ["--requests", "30", "trace", "--out", "{tmp}/t.json", "--csv", "{tmp}/missing/s"],
            ["--requests", "30", "report", "--out", "{tmp}/missing/report.md"],
            ["--requests", "30", "report", "--out", "{tmp}"],
            ["--requests", "30", "online", "--sweeps", "mu", "--json", "{tmp}/missing/o.json"],
            ["--requests", "30", "ssd", "--capacities-mb", "16", "--json", "{tmp}/missing/s"],
            [
                "--requests", "30", "faults", "--metadata-drill",
                "--json", "{tmp}/missing/drill.json",
            ],
            ["--requests", "30", "meanfield", "--json", "{tmp}/missing/m.json"],
            ["--requests", "30", "figures", "6", "--out", "{tmp}/notes.md/figures"],
            ["trace-gen", "synthetic", "{tmp}/x.trace", "--mu", "nan"],
            ["trace-gen", "synthetic", "{tmp}/x.trace", "--mu", "inf"],
            ["trace-gen", "synthetic", "{tmp}/x.trace", "--size-mb", "inf"],
            ["trace-gen", "synthetic", "{tmp}/x.trace", "--inter-arrival-ms", "nan"],
            ["trace-gen", "synthetic", "{tmp}/x.trace", "--inter-arrival-ms", "inf"],
            ["--requests", "20", "faults", "--at", "nan"],
            ["--requests", "20", "faults", "--at", "5", "--repair-at", "nan"],
            ["--requests", "20", "faults", "--mtbf", "nan"],
            ["trace-gen", "berkeley", "{tmp}/x.trace", "--mu", "50"],
            ["trace-gen", "drifting", "{tmp}/x.trace", "--size-mb", "5"],
            ["trace-gen", "berkeley", "{tmp}/x.trace", "--inter-arrival-ms", "100"],
            ["--requests", "20", "trace-gen", "synthetic", "{tmp}/x.trace", "--mu", "1e19"],
            [
                "--requests", "2000", "trace-gen", "synthetic", "{tmp}/x.trace",
                "--inter-arrival-ms", "1e308",
            ],
        ],
        ids=[
            "lint-missing-path",
            "trace-stats-missing-file",
            "trace-stats-not-a-trace",
            "trace-stats-nan-time",
            "trace-stats-inf-time",
            "compare-missing-config",
            "compare-config-with-removed-field",
            "compare-config-with-nan",
            "negative-requests",
            "negative-seed",
            "faults-unknown-node",
            "removed-bench-command",
            "zero-jobs",
            "wear-negative-prefetch",
            "ssd-zero-capacity",
            "ssd-zero-channels",
            "ssd-gc-reserve-too-large",
            "ssd-write-fraction-above-one",
            "faults-negative-crash-time",
            "faults-negative-repair-time",
            "faults-repair-before-crash",
            "faults-mtbf-with-node-crash",
            "faults-negative-mtbf",
            "faults-negative-mttr",
            "faults-zero-replication",
            "faults-replication-above-node-count",
            "drill-zero-shards",
            "drill-zero-replicas",
            "metaplane-zero-shards",
            "metaplane-zero-replicas",
            "trace-gen-negative-mu",
            "trace-gen-negative-inter-arrival",
            "trace-gen-negative-size",
            "lint-races-bad-seed",
            "lint-races-zero-requests",
            "drill-with-mtbf",
            "drill-with-node-crash",
            "drill-with-replication",
            "mttr-without-mtbf",
            "shards-without-drill",
            "meta-replicas-without-drill",
            "json-without-drill",
            "trace-gen-path-in-missing-dir",
            "trace-out-in-missing-dir",
            "trace-jsonl-in-missing-dir",
            "trace-csv-in-missing-dir",
            "report-out-in-missing-dir",
            "report-out-is-a-dir",
            "online-json-in-missing-dir",
            "ssd-json-in-missing-dir",
            "drill-json-in-missing-dir",
            "meanfield-json-in-missing-dir",
            "figures-out-under-a-file",
            "trace-gen-nan-mu",
            "trace-gen-inf-mu",
            "trace-gen-inf-size",
            "trace-gen-nan-inter-arrival",
            "trace-gen-inf-inter-arrival",
            "faults-nan-crash-time",
            "faults-nan-repair-time",
            "faults-nan-mtbf",
            "trace-gen-berkeley-with-mu",
            "trace-gen-drifting-with-size",
            "trace-gen-berkeley-with-inter-arrival",
            "trace-gen-mu-above-poisson-limit",
            "trace-gen-arrival-span-overflows",
        ],
    )
    def test_exits_2_without_traceback(self, argv, tmp_path, capsys):
        (tmp_path / "notes.md").write_text("# not a trace\n")
        catalog = "#eevfs-trace v1\nF 0 1\nF 1 1\n"
        (tmp_path / "nan.trace").write_text(catalog + "R nan 1 read\n")
        (tmp_path / "inf.trace").write_text(catalog + "R inf 0 read\n")
        # An experiment file written before destage_check_interval_s
        # became a constant of repro.core.node.
        (tmp_path / "removed-key.json").write_text(
            '{"policy": {"destage_check_interval_s": 10.0}}\n'
        )
        # NaN passes every "< 0" check; the run would die mid-way.
        (tmp_path / "nan.json").write_text('{"policy": {"idle_threshold_s": NaN}}\n')
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err
        if "removed-key.json" in argv[-1]:
            assert "unknown EEVFSConfig keys" in err
        if "nan.json" in argv[-1]:
            assert "non-finite number NaN" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.trace").exists()


class TestExport:
    def test_figure_to_dict_round_trips_via_json(self, small_sweeps):
        figure = figure3(small_sweeps)
        data = json.loads(json.dumps(figure_to_dict(figure)))
        assert data["figure"] == "Fig3"
        assert set(data["panels"]) == {"a", "b", "c", "d"}
        panel_a = data["panels"]["a"]
        assert len(panel_a["x_values"]) == 4
        assert "PF_energy_J" in panel_a["series"]

    def test_write_figure_csv(self, small_sweeps, tmp_path):
        figure = figure3(small_sweeps)
        paths = write_figure_csv(figure, tmp_path)
        assert len(paths) == 4
        content = (tmp_path / "fig3a.csv").read_text().splitlines()
        assert content[0].startswith("Data Size (MB)")
        assert len(content) == 5  # header + 4 rows

    def test_write_figure_json(self, small_sweeps, tmp_path):
        figure = figure3(small_sweeps)
        path = write_figure_json(figure, tmp_path / "f3.json")
        data = json.loads(path.read_text())
        assert data["title"].startswith("Energy")

    def test_figure6_export(self, tmp_path):
        fig6 = figure6(run_study(figure6_study(n_requests=60)))
        data = figure6_to_dict(fig6)
        assert data["pf_energy_j"] < data["npf_energy_j"]
        path = write_figure_json(fig6, tmp_path / "f6.json")
        assert json.loads(path.read_text())["figure"] == "Fig6"
