"""simlint behaviour against the known-bad / known-clean fixture tree.

Each fixture under ``fixtures/`` exercises one rule; paths mimic the
package layout (``fixtures/repro/sim/...``) because rule scoping is
suffix-based.  Assertions pin exact rule IDs and line numbers so a rule
regression (missed pattern or spurious hit) fails loudly.
"""

import json
import os
import shutil

import pytest

from repro.devtools import all_rules
from repro.devtools.runner import (
    apply_fixes,
    iter_python_files,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def findings_for(path, select=None):
    result = lint_paths([path], select=select)
    return [(d.rule, d.line) for d in result.diagnostics]


class TestRuleFindings:
    def test_det001_flags_every_random_source(self):
        assert findings_for(fixture("det001_bad.py")) == [
            ("DET001", 3),  # import random
            ("DET001", 11),  # np.random.rand
            ("DET001", 12),  # unseeded np.random.default_rng()
            ("DET001", 13),  # unseeded bare default_rng()
        ]

    def test_det001_exempts_the_rng_module(self):
        assert findings_for(fixture("repro", "sim", "rng.py")) == []

    def test_det002_flags_wall_clock_reads(self):
        assert findings_for(fixture("det002_bad.py")) == [
            ("DET002", 5),  # from time import perf_counter
            ("DET002", 9),  # time.time()
            ("DET002", 11),  # datetime.datetime.now()
        ]

    def test_det002_exempts_no_module(self):
        # experiments/ gets no exemption either.
        assert findings_for(fixture("repro", "experiments", "perf.py")) == [
            ("DET002", 7),  # time.perf_counter()
            ("DET002", 8),  # time.perf_counter()
        ]

    def test_det003_flags_unordered_iteration(self):
        assert findings_for(fixture("repro", "core", "det003_bad.py")) == [
            ("DET003", 6),  # .keys()
            ("DET003", 8),  # .values()
            ("DET003", 10),  # set literal
        ]

    def test_det003_covers_the_obs_package(self):
        assert findings_for(fixture("repro", "obs", "det003_bad.py")) == [
            ("DET003", 10),  # .values()
            ("DET003", 12),  # set literal
        ]

    def test_det001_covers_the_metaplane_package(self):
        assert findings_for(fixture("repro", "metaplane", "det001_bad.py")) == [
            ("DET001", 11),  # unseeded np.random.default_rng()
        ]

    def test_det003_covers_the_metaplane_package(self):
        assert findings_for(fixture("repro", "metaplane", "det003_bad.py")) == [
            ("DET003", 11),  # .values()
            ("DET003", 13),  # set literal
        ]

    def test_det001_covers_the_online_package(self):
        assert findings_for(fixture("repro", "online", "det001_bad.py")) == [
            ("DET001", 12),  # unseeded np.random.default_rng()
        ]

    def test_det003_covers_the_online_package(self):
        assert findings_for(fixture("repro", "online", "det003_bad.py")) == [
            ("DET003", 11),  # .values()
            ("DET003", 13),  # set literal
        ]

    def test_det001_covers_the_backend_package(self):
        assert findings_for(fixture("repro", "backend", "det001_bad.py")) == [
            ("DET001", 12),  # unseeded np.random.default_rng()
        ]

    def test_det003_covers_the_backend_package(self):
        assert findings_for(fixture("repro", "backend", "det003_bad.py")) == [
            ("DET003", 11),  # .values()
            ("DET003", 13),  # set literal
        ]

    def test_sim002_covers_the_ftl_module(self):
        assert findings_for(fixture("repro", "backend", "ftl.py")) == [
            ("SIM002", 4),
        ]

    def test_det003_only_fires_in_ordered_packages(self):
        source = "def f(d):\n    for v in d.values():\n        print(v)\n"
        active, _ = lint_source("scratch/elsewhere.py", source)
        assert [d.rule for d in active] == []

    def test_par001_flags_lambdas_and_closures(self):
        assert findings_for(fixture("repro", "parallel", "par001_bad.py")) == [
            ("PAR001", 3),  # module-level lambda
            ("PAR001", 7),  # nested def
        ]

    def test_sim001_flags_swallowed_exceptions(self):
        assert findings_for(fixture("repro", "disk", "sim001_bad.py")) == [
            ("SIM001", 7),  # bare except
            ("SIM001", 11),  # except Exception: pass
        ]

    def test_sim002_flags_missing_slots(self):
        assert findings_for(fixture("repro", "sim", "monitor.py")) == [
            ("SIM002", 4),
        ]

    def test_sim002_covers_the_obs_instrument_modules(self):
        assert findings_for(fixture("repro", "obs", "telemetry.py")) == [
            ("SIM002", 4),
        ]

    def test_sim002_accepts_slots_dataclasses_only(self):
        # Bare, frozen-only and trailing-comma dataclasses are flagged;
        # the dataclass(..., slots=True) below them passes.
        assert findings_for(fixture("repro", "core", "protocol.py")) == [
            ("SIM002", 8),
            ("SIM002", 13),
            ("SIM002", 19),
        ]

    def test_sim002_covers_the_wire_record_modules(self):
        source = "from dataclasses import dataclass\n\n@dataclass\nclass Vote:\n    term: int\n"
        for path in ("repro/core/protocol.py", "repro/metaplane/messages.py"):
            active, _ = lint_source(path, source)
            assert [(d.rule, d.line) for d in active] == [("SIM002", 4)]

    def test_clean_file_has_no_findings(self):
        assert findings_for(fixture("clean.py")) == []


class TestContinuationRules:
    """The simlint v2 rules: cross-module resolution."""

    def test_cont001_flags_late_bound_loop_vars(self):
        assert findings_for(fixture("repro", "sim", "cont001_bad.py")) == [
            ("CONT001", 6),  # call_soon(lambda: disk...)
            ("CONT001", 7),  # call_later(5.0, lambda: disk...)
            ("CONT001", 13),  # def fire() capturing `event`, appended
        ]

    def test_sim003_flags_unordered_scheduling_everywhere(self):
        # The fixture lives outside DET003's ordered packages on purpose.
        assert findings_for(fixture("repro", "xsched", "sim003_bad.py")) == [
            ("SIM003", 13),  # direct call_soon in a set loop
            ("SIM003", 18),  # via kick(), one interprocedural hop
        ]

    def test_sim003_sees_schedule_entries_written_in_place(self):
        # A function that appends to `<sim>._lanes` or pushes onto
        # `<sim>._heap` schedules as surely as one calling `call_soon`.
        assert findings_for(fixture("repro", "xsched", "sim003_inplace.py")) == [
            ("SIM003", 29),  # box.put(item): a lane append
            ("SIM003", 34),  # box.later(...): a heap push
            ("SIM003", 39),  # sim.call_soon(box.put, item)
        ]

    def test_det004_flags_unordered_stream_derivation(self):
        assert findings_for(fixture("repro", "sim", "det004_bad.py")) == [
            ("DET004", 5),  # set(...)
            ("DET004", 6),  # .keys()
            ("DET004", 7),  # id(...)
            ("DET004", 8),  # set inside an f-string
        ]

    def test_cross_module_hazards_need_the_directory_model(self):
        # Alone, the caller is clean: `enqueue`/`gauge` are opaque names.
        assert findings_for(fixture("repro", "xmod", "sched_caller.py")) == []
        # With the sibling module in the project model both hazards appear.
        assert findings_for(fixture("repro", "xmod")) == [
            ("SIM003", 12),  # enqueue() schedules (resolved cross-module)
            ("CONT001", 18),  # gauge() retains its third argument
        ]


class TestUnusedSuppressions:
    def test_lnt001_flags_stale_pragmas(self):
        assert findings_for(fixture("lnt001_bad.py")) == [
            ("LNT001", 3),  # DET003 never fires on the import line
            ("LNT001", 5),  # file-wide SIM002 waiver silences nothing
            ("LNT001", 9),  # DET002 never fires on sum()
        ]

    def test_lnt001_fixer_rewrites_strips_and_deletes(self, tmp_path):
        dest = tmp_path / "lnt001_bad.py"
        shutil.copy(fixture("lnt001_bad.py"), dest)
        result = lint_paths([str(dest)])
        assert apply_fixes(result) == 3
        fixed = open(dest).read()
        # Partially-stale bracket keeps the rule that still fires.
        assert "import random  # simlint: ignore[DET001]" in fixed
        # The pragma-only line is deleted outright.
        assert "ignore-file" not in fixed
        # A fully-stale trailing pragma is stripped, code kept.
        assert "    total = sum(values)\n" in fixed
        assert "DET002" not in fixed
        assert lint_paths([str(dest)]).ok

    def test_select_scopes_the_staleness_judgement(self):
        # Under --select DET001 a DET003 waiver is not judged (DET003
        # did not run), so only genuinely-judgeable entries fire.
        result = lint_paths([fixture("lnt001_bad.py")], select=["DET001", "LNT001"])
        assert [(d.rule, d.line) for d in result.diagnostics] == []


class TestSuppression:
    def test_pragmas_silence_findings_but_stay_visible(self):
        result = lint_paths([fixture("suppressed.py")])
        assert result.diagnostics == []
        assert result.ok
        assert [(d.rule, d.line) for d in result.suppressed] == [
            ("DET001", 3),  # simlint: ignore[DET001]
            ("DET002", 9),  # simlint: ignore[*]
        ]

    def test_wrong_rule_id_does_not_suppress(self):
        source = "import random  # simlint: ignore[DET002]\n"
        active, suppressed = lint_source("scratch/mod.py", source)
        # The import still fires, and the mistargeted pragma is itself
        # flagged as silencing nothing (LNT001).
        assert [d.rule for d in active] == ["DET001", "LNT001"]
        assert suppressed == []


class TestRunner:
    def test_select_restricts_rules(self):
        result = lint_paths([FIXTURES], select=["SIM002"])
        assert {d.rule for d in result.diagnostics} == {"SIM002"}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError):
            all_rules(["NOPE99"])

    def test_registry_has_at_least_ten_rules(self):
        rules = all_rules()
        assert len(rules) >= 10
        ids = {r.id for r in rules}
        assert {"CONT001", "SIM003", "DET004", "LNT001"} <= ids

    def test_syntax_error_reports_e999(self):
        active, _ = lint_source("scratch/broken.py", "def f(:\n")
        assert [d.rule for d in active] == ["E999"]

    def test_walk_is_sorted_and_skips_caches(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "c.py").write_text("x = 1\n")
        names = [os.path.basename(p) for p in iter_python_files([str(tmp_path)])]
        assert names == ["a.py", "b.py"]

    def test_render_json_shape(self):
        result = lint_paths([fixture("det001_bad.py")])
        payload = json.loads(render_json(result))
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        first = payload["findings"][0]
        assert first["rule"] == "DET001"
        assert first["line"] == 3
        assert first["path"].endswith("det001_bad.py")

    def test_render_text_summary_line(self):
        result = lint_paths([fixture("clean.py")])
        assert render_text(result).splitlines()[-1] == "0 findings in 1 files"


class TestFixers:
    def _copy_fixture(self, tmp_path, *parts):
        dest = tmp_path.joinpath(*parts)
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(fixture(*parts), dest)
        return str(dest)

    def test_det003_fixer_wraps_in_sorted(self, tmp_path):
        path = self._copy_fixture(tmp_path, "repro", "core", "det003_bad.py")
        result = lint_paths([path])
        assert apply_fixes(result) == 3
        fixed = open(path).read()
        assert "for name in sorted(counts.keys()):" in fixed
        assert "for value in sorted(counts.values()):" in fixed
        assert "for item in sorted({3, 1, 2}):" in fixed
        assert lint_paths([path]).ok

    def test_sim002_fixer_inserts_slots(self, tmp_path):
        path = self._copy_fixture(tmp_path, "repro", "sim", "monitor.py")
        result = lint_paths([path])
        assert apply_fixes(result) == 1
        fixed = open(path).read()
        assert '__slots__ = ("count", "total")' in fixed
        assert lint_paths([path]).ok

    def test_sim002_fixer_adds_slots_to_dataclass_decorators(self, tmp_path):
        path = self._copy_fixture(tmp_path, "repro", "core", "protocol.py")
        result = lint_paths([path])
        assert apply_fixes(result) == 3
        fixed = open(path).read()
        assert "@dataclass(slots=True)\nclass Bare:" in fixed
        assert "@dataclasses.dataclass(frozen=True, slots=True)\nclass Frozen:" in fixed
        assert "@dataclass(frozen=True, slots=True)\nclass Trailing:" in fixed
        assert "__slots__" not in fixed  # would clash with the field default
        assert lint_paths([path]).ok
        namespace: dict = {}
        exec(compile(fixed, path, "exec"), namespace)
        assert not hasattr(namespace["Frozen"](1), "__dict__")
        assert not hasattr(namespace["Trailing"](1), "__dict__")


class TestRepositoryIsClean:
    def test_src_tree_passes_simlint(self):
        root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        result = lint_paths([root])
        assert result.ok, render_text(result)
