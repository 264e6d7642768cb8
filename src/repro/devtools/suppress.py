"""Suppression comments for simlint.

Two forms are honoured:

* line-scoped -- ``# simlint: ignore[DET001]`` (or a comma-separated
  list) on the flagged line silences the named rules there;
  ``# simlint: ignore`` with no bracket silences every rule on the line;
* file-scoped -- ``# simlint: ignore-file[SIM002]`` anywhere in the file
  silences the named rules for the whole file (a bare ``ignore-file``
  silences everything -- use sparingly).

Suppressions are deliberately explicit about the rule id so a reviewer
can see *which* invariant is being waived and grep for waivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import io
import re
import tokenize

_PRAGMA = re.compile(
    r"#\s*simlint:\s*(?P<scope>ignore-file|ignore)\s*(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: Sentinel rule set meaning "every rule".
ALL_RULES = frozenset({"*"})


def _parse_rules(spec: str | None) -> frozenset[str]:
    if spec is None:
        return ALL_RULES
    rules = frozenset(part.strip().upper() for part in spec.split(",") if part.strip())
    return rules or ALL_RULES


@dataclass(frozen=True)
class Pragma:
    """One ``# simlint:`` comment, kept whole for staleness auditing.

    The by-line/file-wide maps answer "is this finding silenced?"; the
    pragma list answers the inverse question LNT001 asks -- "did this
    waiver silence *anything*?" -- which needs each comment's own
    location, scope, and rule list, plus where the pragma text sits in
    the line so ``--fix`` can strip it surgically.
    """

    line: int
    col: int
    #: ``"ignore"`` or ``"ignore-file"``.
    scope: str
    #: Rule ids named in the bracket ({"*"} for a bare pragma).
    rules: frozenset[str]
    #: Character offsets of the matched pragma text within the line.
    span: tuple[int, int]


@dataclass
class Suppressions:
    """Parsed suppression pragmas of one source file."""

    #: line number -> rule ids silenced on that line ({"*"} = all).
    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    #: rule ids silenced file-wide ({"*"} = all).
    file_wide: frozenset[str] = frozenset()
    #: Every pragma comment found, in source order (for LNT001).
    pragmas: list[Pragma] = field(default_factory=list)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Whether *rule* is silenced at *line*."""
        rule = rule.upper()
        if "*" in self.file_wide or rule in self.file_wide:
            return True
        rules = self.by_line.get(line)
        if rules is None:
            return False
        return "*" in rules or rule in rules


def scan_suppressions(source: str) -> Suppressions:
    """Collect every ``# simlint:`` pragma in *source*.

    Tokenisation (rather than a per-line regex) keeps pragmas inside
    string literals from being honoured -- only real comments count.
    """
    suppressions = Suppressions()
    file_wide: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(token.string)
            if match is None:
                continue
            rules = _parse_rules(match.group("rules"))
            line = token.start[0]
            pragma_col = token.start[1] + match.start()
            suppressions.pragmas.append(
                Pragma(
                    line=line,
                    col=pragma_col,
                    scope=match.group("scope"),
                    rules=rules,
                    span=(pragma_col, token.start[1] + match.end()),
                )
            )
            if match.group("scope") == "ignore-file":
                file_wide.update(rules)
            else:
                existing = suppressions.by_line.get(line, frozenset())
                suppressions.by_line[line] = existing | rules
    except tokenize.TokenError:
        # Malformed tail (unterminated string, ...): keep what was
        # collected -- the AST parse will report the real syntax error.
        pass
    suppressions.file_wide = frozenset(file_wide)
    return suppressions
