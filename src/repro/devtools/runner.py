"""Running simlint over files and trees.

:func:`lint_paths` is the programmatic entry point (the ``eevfs lint``
subcommand is a thin argparse shim over it): walk the given files and
directories, check every ``*.py`` file, drop findings silenced by
``# simlint:`` pragmas, and return the surviving diagnostics sorted by
location.  :func:`apply_fixes` rewrites files in place for the subset of
findings whose rules provide a mechanical fix.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
import json
import os
from typing import Iterable, Iterator, Sequence

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules import (
    all_rules,
    check_file,
    Edit,
    LintConfig,
    LintContext,
    registered_rule_ids,
    Rule,
)
from repro.devtools.suppress import Pragma, scan_suppressions, Suppressions
from repro.devtools.symbols import build_project, ProjectModel

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".mypy_cache", ".ruff_cache", ".pytest_cache", "build", "dist"}
)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield every ``*.py`` file under *paths* (files pass through as-is),
    in sorted order so runs are reproducible."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


@dataclass
class LintResult:
    """Outcome of one :func:`lint_paths` run."""

    #: Findings that survived suppression, sorted by location.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Files checked (after walking), in check order.
    files: list[str] = field(default_factory=list)
    #: Findings silenced by pragmas (visible for ``--show-suppressed``
    #: style tooling and for tests).
    suppressed: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _pragma_matches(
    pragma: Pragma, diag: Diagnostic, rule: str | None = None
) -> bool:
    """Whether *pragma* is the kind of waiver that silences *diag*
    (restricted to *rule* when given)."""
    if pragma.scope == "ignore" and diag.line != pragma.line:
        return False
    if rule is not None:
        return diag.rule == rule
    return "*" in pragma.rules or diag.rule in pragma.rules


def _pragma_fix_hint(line_text: str, pragma: Pragma, kept: list[str]) -> str:
    """New text for the pragma's line: rewrite the bracket to the rules
    still earning their keep, or strip the pragma entirely.  ``""``
    means the whole line goes."""
    before, after = line_text[: pragma.span[0]], line_text[pragma.span[1] :]
    if kept:
        replacement = f"# simlint: {pragma.scope}[{','.join(kept)}]"
        return f"{before}{replacement}{after}".rstrip()
    stripped = f"{before.rstrip()}{after}".rstrip()
    return "" if not stripped.strip("# \t") else stripped


def unused_pragma_diagnostics(
    path: str,
    source: str,
    suppressions: Suppressions,
    suppressed: Sequence[Diagnostic],
    active_rule_ids: frozenset[str],
    full_rule_set: bool,
) -> list[Diagnostic]:
    """LNT001: pragmas (or bracket entries) that silenced nothing.

    A named rule is judged only when it ran (it is in
    *active_rule_ids*) -- a ``--select DET001`` run must not call a
    SIM002 waiver stale -- except that rule ids the registry has never
    heard of are always flagged.  Bare ``ignore``/``ignore[*]`` pragmas
    are judged only under the full rule set for the same reason.
    """
    posix = path.replace("\\", "/")
    known = registered_rule_ids()
    lines = source.splitlines()
    diags: list[Diagnostic] = []
    for pragma in suppressions.pragmas:
        named = sorted(pragma.rules - {"*"})
        unused: list[str] = []
        kept: list[str] = []
        if not named:
            if not full_rule_set:
                continue
            if any(_pragma_matches(pragma, d) for d in suppressed):
                continue
            message = f"unused `# simlint: {pragma.scope}` pragma: nothing fired here"
        else:
            for rule in named:
                if rule == "LNT001":
                    kept.append(rule)
                    continue
                judged = rule not in known or rule in active_rule_ids
                fired = any(_pragma_matches(pragma, d, rule=rule) for d in suppressed)
                if judged and not fired:
                    unused.append(rule)
                else:
                    kept.append(rule)
            if not unused:
                continue
            stale = ", ".join(unused)
            ghosts = [r for r in unused if r not in known]
            if ghosts:
                message = (
                    f"suppression names unknown rule id(s) {', '.join(ghosts)}; "
                    "remove the stale waiver"
                )
            else:
                message = f"unused suppression: {stale} never fired here"
        line_text = lines[pragma.line - 1] if pragma.line <= len(lines) else ""
        diags.append(
            Diagnostic(
                path=posix,
                line=pragma.line,
                col=pragma.col + 1,
                rule="LNT001",
                message=message,
                fixable=True,
                fix_hint=_pragma_fix_hint(line_text, pragma, kept),
            )
        )
    return diags


def lint_source(
    path: str,
    source: str,
    config: LintConfig | None = None,
    rules: Sequence[Rule] | None = None,
    project: ProjectModel | None = None,
    tree: "ast.Module | None" = None,
    full_rule_set: bool | None = None,
) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """Check one in-memory source; returns (active, suppressed) findings."""
    findings = check_file(
        path, source, config=config, rules=rules, project=project, tree=tree
    )
    suppressions = scan_suppressions(source)
    active: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    for diag in findings:
        if suppressions.is_suppressed(diag.line, diag.rule):
            suppressed.append(diag)
        else:
            active.append(diag)
    rule_ids = frozenset(r.id for r in rules) if rules is not None else registered_rule_ids()
    if full_rule_set is None:
        full_rule_set = rule_ids >= registered_rule_ids()
    if "LNT001" in rule_ids:
        for diag in unused_pragma_diagnostics(
            path, source, suppressions, suppressed, rule_ids, full_rule_set
        ):
            if suppressions.is_suppressed(diag.line, diag.rule):
                suppressed.append(diag)
            else:
                active.append(diag)
        active.sort()
        suppressed.sort()
    return active, suppressed


def lint_paths(
    paths: Sequence[str],
    config: LintConfig | None = None,
    select: Iterable[str] | None = None,
) -> LintResult:
    """Lint every Python file reachable from *paths*.

    Two phases: every file is read and parsed once and the cross-module
    symbol table (:mod:`repro.devtools.symbols`) is built over the whole
    set; then each file is checked against the shared model, so the
    interprocedural rules see callees defined in sibling modules.
    """
    rules = all_rules(select)
    config = config or LintConfig()
    result = LintResult()
    entries: list[tuple[str, str, "ast.Module | None"]] = []
    for filename in iter_python_files(paths):
        try:
            with open(filename, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            result.diagnostics.append(
                Diagnostic(
                    path=filename.replace("\\", "/"),
                    line=1,
                    col=1,
                    rule="E902",
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        try:
            tree: "ast.Module | None" = ast.parse(source, filename=filename)
        except SyntaxError:
            tree = None  # check_file re-parses and reports E999.
        entries.append((filename, source, tree))
    project = build_project(
        [(name, tree) for name, _, tree in entries if tree is not None],
        schedule_primitives=config.schedule_primitives,
        callback_sinks=config.callback_sinks,
    )
    for filename, source, tree in entries:
        result.files.append(filename)
        active, suppressed = lint_source(
            filename,
            source,
            config=config,
            rules=rules,
            project=project,
            tree=tree,
            full_rule_set=select is None,
        )
        result.diagnostics.extend(active)
        result.suppressed.extend(suppressed)
    result.diagnostics.sort()
    result.suppressed.sort()
    return result


def apply_fixes(
    result: LintResult,
    config: LintConfig | None = None,
    select: Iterable[str] | None = None,
) -> int:
    """Rewrite files in place for every fixable finding in *result*.

    Edits are computed per file from a fresh parse and applied bottom-up
    so earlier line numbers stay valid.  Returns the number of edits
    applied; re-linting afterwards reports anything that remains.
    """
    rules = {rule.id: rule for rule in all_rules(select)}
    fixed = 0
    by_file: dict[str, list[Diagnostic]] = {}
    for diag in result.diagnostics:
        if diag.fixable:
            by_file.setdefault(diag.path, []).append(diag)
    for path, diags in by_file.items():
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        ctx = LintContext(
            path=path, source=source, tree=tree, config=config or LintConfig()
        )
        edits: list[Edit] = []
        for diag in diags:
            rule = rules.get(diag.rule)
            if rule is None:
                continue
            edit = rule.fix(ctx, diag)
            if edit is not None:
                edits.append(edit)
        if not edits:
            continue
        lines = source.splitlines(keepends=True)
        newline = "\n"
        for edit in sorted(edits, key=lambda e: e.line, reverse=True):
            index = edit.line - 1
            if not 0 <= index < len(lines):
                continue
            if edit.delete:
                del lines[index]
            elif edit.insert:
                lines.insert(index, edit.new_text + newline)
            else:
                ending = newline if lines[index].endswith(newline) else ""
                lines[index] = edit.new_text + ending
            fixed += 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(lines))
    return fixed


def render_text(result: LintResult) -> str:
    """Human-readable report: one ``path:line:col: RULE message`` per
    finding plus a summary line."""
    lines = [diag.format() for diag in result.diagnostics]
    count = len(result.diagnostics)
    noun = "finding" if count == 1 else "findings"
    summary = f"{count} {noun} in {len(result.files)} files"
    if result.suppressed:
        summary += f" ({len(result.suppressed)} suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable key order, sorted findings)."""
    payload = {
        "findings": [diag.as_dict() for diag in result.diagnostics],
        "suppressed": [diag.as_dict() for diag in result.suppressed],
        "files_checked": len(result.files),
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
