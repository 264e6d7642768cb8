"""The simlint rule engine.

A :class:`Rule` inspects one parsed source file (a :class:`LintContext`)
and yields :class:`~repro.devtools.diagnostics.Diagnostic` findings.
Rules register themselves in a module-level registry via
:func:`register`; :func:`all_rules` instantiates the full set (importing
:mod:`repro.devtools.checks` on first use so the registry is populated).

Path scoping
------------
Most rules only apply to parts of the tree (raw RNG construction is fine
inside ``sim/rng.py``, iteration order only matters where it feeds the
event loop).
Scoping works on *posix path suffixes*: a scope of ``"repro/sim"``
matches any file whose path contains that package directory, and
``"repro/sim/rng.py"`` matches exactly that module wherever the tree is
checked out.  Test fixtures exercise scoped rules by mimicking the
package layout under their fixture directory.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.symbols import (
    ModuleInfo,
    module_name_for_path,
    ProjectModel,
    summarise_module,
)


def _posix(path: str) -> str:
    return path.replace("\\", "/")


def path_in_scope(path: str, scopes: Sequence[str]) -> bool:
    """Whether *path* falls under any of the *scopes* (suffix match)."""
    posix = _posix(path)
    for scope in scopes:
        if scope.endswith(".py"):
            if posix.endswith(scope):
                return True
        elif f"/{scope.rstrip('/')}/" in f"/{posix}":
            return True
    return False


@dataclass(frozen=True)
class LintConfig:
    """Where each scoped rule looks; override in tests or odd layouts."""

    #: The one module allowed to construct raw generators (DET001).
    rng_module: str = "repro/sim/rng.py"
    #: Packages whose iteration order feeds event scheduling or metric
    #: accumulation (DET003).
    ordered_packages: tuple[str, ...] = (
        "repro/sim",
        "repro/core",
        "repro/disk",
        "repro/faults",
        "repro/replication",
        "repro/net",
        "repro/obs",
        "repro/metaplane",
        "repro/online",
        "repro/backend",
    )
    #: Modules whose objects cross the process-pool pickle boundary
    #: (PAR001): the specs themselves plus everything their fields hold.
    picklable_modules: tuple[str, ...] = (
        "repro/parallel",
        "repro/core/config.py",
        "repro/traces/model.py",
        "repro/traces/synthetic.py",
        "repro/traces/berkeley.py",
        "repro/traces/nonstationary.py",
        "repro/traces/diurnal.py",
    )
    #: Packages where a swallowed exception can hide event-loop
    #: corruption (SIM001).
    event_loop_packages: tuple[str, ...] = (
        "repro/sim",
        "repro/disk",
        "repro/faults",
        "repro/backend",
    )
    #: Modules whose classes must be slotted: ``__slots__`` or
    #: ``dataclass(slots=True)`` (SIM002).
    slotted_modules: tuple[str, ...] = (
        "repro/sim/monitor.py",
        "repro/sim/resources.py",
        "repro/obs/tracer.py",
        "repro/obs/telemetry.py",
        "repro/backend/ftl.py",
        "repro/core/protocol.py",
        "repro/metaplane/messages.py",
    )
    #: Calls that enqueue work on the event loop.  Feeds the symbol
    #: table's ``schedules_directly`` summary (SIM003) and the closure
    #: rules' notion of "this callable will run later" (CONT001).
    schedule_primitives: tuple[str, ...] = (
        "call_soon",
        "call_later",
        "send_nowait",
        "succeed",
        "fail",
        "schedule",
    )
    #: Callback sinks and the positional index of their callable
    #: argument: ``call_soon(fn, ...)`` takes it first,
    #: ``call_later(delay, fn, ...)`` second.
    callback_sinks: tuple[tuple[str, int], ...] = (
        ("call_soon", 0),
        ("call_later", 1),
        ("add_event_hook", 0),
    )
    #: Calls that derive a named RNG stream from their arguments
    #: (DET004): the argument must not be built from an unordered
    #: collection or an ``id()``.
    stream_factories: tuple[str, ...] = (
        "stream",
        "fault_stream",
        "spawn",
        "RandomStreams",
        "default_rng",
        "SeedSequence",
    )


@dataclass
class LintContext:
    """One file, parsed once, shared by every rule.

    ``project`` and ``module`` carry the phase-one symbol table
    (:mod:`repro.devtools.symbols`).  :func:`check_file` guarantees both
    are populated -- directory runs share one cross-module model,
    single-file entry points get a one-module model -- so rules use them
    unconditionally.
    """

    path: str
    source: str
    tree: ast.Module
    config: LintConfig = field(default_factory=LintConfig)
    project: ProjectModel | None = None
    module: ModuleInfo | None = None

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()


@dataclass(frozen=True)
class Edit:
    """A single-line replacement produced by a rule fixer.

    ``line`` is 1-based; ``new_text`` replaces the whole line (or, when
    ``insert=True``, is inserted *before* it; when ``delete=True``, the
    line is removed and ``new_text`` is ignored).  Fixers only make
    edits whose correctness is mechanical; anything judgement-shaped
    stays a diagnostic.
    """

    line: int
    new_text: str
    insert: bool = False
    delete: bool = False


class Rule:
    """Base class: subclasses set ``id``/``summary`` and implement ``check``."""

    id: str = ""
    summary: str = ""
    #: Why the invariant matters (surfaced by ``eevfs lint --list-rules``).
    rationale: str = ""

    def applies_to(self, ctx: LintContext) -> bool:
        """Path-based scoping; default: every file."""
        return True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def fix(self, ctx: LintContext, diagnostic: Diagnostic) -> Edit | None:
        """Mechanical rewrite for *diagnostic*, if the rule supports one."""
        return None

    def diagnostic(
        self, ctx: LintContext, node: ast.AST, message: str, fixable: bool = False
    ) -> Diagnostic:
        return Diagnostic(
            path=_posix(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
            fixable=fixable,
        )


#: Registered rule classes, in registration (= documentation) order.
_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding *cls* to the rule registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate every registered rule (optionally a subset by id)."""
    # Importing the checks modules populates the registry on first use.
    import repro.devtools.checks  # noqa: F401  (import-for-side-effect)
    import repro.devtools.checks_sched  # noqa: F401  (import-for-side-effect)

    wanted = None if select is None else {s.strip().upper() for s in select}
    rules = [cls() for rule_id, cls in _REGISTRY.items() if wanted is None or rule_id in wanted]
    if wanted is not None:
        unknown = wanted - set(_REGISTRY)
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return rules


def single_file_project(
    path: str, tree: ast.Module, config: LintConfig
) -> tuple[ProjectModel, ModuleInfo]:
    """A one-module symbol table for single-file entry points."""
    module = summarise_module(
        path,
        tree,
        schedule_primitives=config.schedule_primitives,
        callback_sinks=config.callback_sinks,
    )
    project = ProjectModel()
    project.add_module(module)
    return project, module


def registered_rule_ids() -> frozenset[str]:
    """Every rule id the registry knows (for pragma validation)."""
    import repro.devtools.checks  # noqa: F401  (import-for-side-effect)
    import repro.devtools.checks_sched  # noqa: F401  (import-for-side-effect)

    return frozenset(_REGISTRY)


def check_file(
    path: str,
    source: str,
    config: LintConfig | None = None,
    rules: Sequence[Rule] | None = None,
    project: ProjectModel | None = None,
    tree: ast.Module | None = None,
) -> list[Diagnostic]:
    """Run *rules* (default: all) over one file's source.

    Phase two of the two-phase engine: *project* is the cross-module
    symbol table built by phase one (``lint_paths``); when absent a
    one-module model is built so rules always see ``ctx.project``.
    Returns diagnostics sorted by location; suppression filtering
    happens in the runner so callers can also inspect raw findings.
    """
    config = config or LintConfig()
    if tree is None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Diagnostic(
                    path=_posix(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
                    rule="E999",
                    message=f"syntax error: {exc.msg}",
                )
            ]
    if project is None:
        project, module = single_file_project(path, tree, config)
    else:
        module = project.modules.get(
            module_name_for_path(path)
        ) or single_file_project(path, tree, config)[1]
    ctx = LintContext(
        path=path,
        source=source,
        tree=tree,
        config=config,
        project=project,
        module=module,
    )
    findings: list[Diagnostic] = []
    for rule in rules if rules is not None else all_rules():
        if rule.applies_to(ctx):
            findings.extend(rule.check(ctx))
    return sorted(findings)


#: Signature of the per-file source loader (swappable in tests).
SourceLoader = Callable[[str], str]
