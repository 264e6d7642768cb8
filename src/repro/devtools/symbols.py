"""Cross-module symbol table for simlint's interprocedural rules.

The continuation rules need one question answered across module
boundaries: *when a callable is passed into this call, does it end up
scheduled or stored?*  ``telemetry.gauge(name, fn)`` keeps ``fn``
forever; ``sim.call_soon(fn)`` schedules it; a plain ``max(a, b)`` does
neither.  A per-file visitor cannot know -- the callee usually lives in
another module.

:class:`ProjectModel` is the answer: every function and method of every
parsed file, summarised once as a :class:`FunctionInfo` --

* does the body schedule directly: call a schedule primitive
  (:attr:`~repro.devtools.rules.LintConfig.schedule_primitives`), or
  write an entry onto the engine's schedule itself, appending to
  ``<sim>._lanes[...]`` or pushing onto ``<sim>._heap`` the way
  ``Mailbox.put`` and the fabric's grants do?
* which positional parameters are forwarded into a callback sink
  (``call_soon(param)``, ``call_later(delay, param)``)?
* which positional parameters are *retained* -- stored on ``self``,
  appended to a container, kept in a dict?

Call sites are resolved by **bare name**: a call ``x.gauge(...)`` is
matched against every known function/method named ``gauge`` and their
summaries are unioned.  That is deliberately conservative in both
directions -- it needs no import resolution or type inference, works on
single-file fixtures, and over-approximates rather than silently
missing a sink.  Methods drop their ``self``/``cls`` parameter so
call-site argument positions line up with summary indices.

The model is built once per :func:`~repro.devtools.runner.lint_paths`
run (phase one) and shared by every rule through
:attr:`LintContext.project` (phase two); single-file entry points build
a one-module model so rules never special-case its absence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

#: Attribute-call receivers that retain their argument: ``x.append(fn)``
#: stores ``fn`` in ``x``.  ``add_event_hook``/``register`` are the
#: engine/observability retention verbs.
_RETAINING_METHODS = frozenset(
    {"append", "appendleft", "add", "register", "setdefault", "add_event_hook"}
)

#: The engine's schedule, and the calls that add to it: a function that
#: appends to one of its lanes or pushes onto its heap writes a schedule
#: entry in place.
_SCHEDULE_ATTRS = frozenset({"_lanes", "_heap"})
_SCHEDULE_WRITES = frozenset({"append", "appendleft", "heappush"})


def module_name_for_path(path: str) -> str:
    """Dotted module name of *path*, anchored at the ``repro`` package.

    ``.../src/repro/sim/engine.py`` -> ``repro.sim.engine``; fixture
    trees that mimic the layout (``tests/devtools/fixtures/repro/...``)
    resolve the same way.  Files outside any ``repro`` tree fall back to
    their stem, which keeps bare-name resolution working.
    """
    posix = path.replace("\\", "/")
    parts = posix.split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            tail = parts[i:-1] + ([] if stem == "__init__" else [stem])
            return ".".join(tail)
    return stem


@dataclass(frozen=True)
class FunctionInfo:
    """Flow summary of one function or method."""

    module: str
    qualname: str
    #: Bare name used for call-site resolution.
    name: str
    #: Positional parameter names, ``self``/``cls`` dropped for methods.
    params: tuple[str, ...]
    #: Body calls a schedule primitive or writes a schedule entry in place.
    schedules_directly: bool
    #: Indices into :attr:`params` forwarded into a callback sink.
    scheduled_params: frozenset[int]
    #: Indices into :attr:`params` stored past the call (attribute/
    #: subscript assignment, retaining method call).
    retained_params: frozenset[int]
    #: Bare names of everything the body calls (one transitive hop for
    #: the rules that want it).
    calls: frozenset[str]
    line: int


@dataclass
class ModuleInfo:
    """One parsed file in the project model."""

    name: str
    path: str
    tree: ast.Module
    functions: list[FunctionInfo] = field(default_factory=list)


class ProjectModel:
    """Bare-name-indexed view over every function of every module."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self._by_name: dict[str, list[FunctionInfo]] = {}

    def add_module(self, info: ModuleInfo) -> None:
        self.modules[info.name] = info
        for fn in info.functions:
            self._by_name.setdefault(fn.name, []).append(fn)

    def functions_named(self, bare: str) -> list[FunctionInfo]:
        """Every known function/method with bare name *bare*."""
        return self._by_name.get(bare, [])

    def callback_param_positions(self, bare: str) -> frozenset[int]:
        """Union of scheduled+retained parameter indices over every
        function named *bare* -- 'if I pass a callable here, can it
        outlive the call?'."""
        positions: set[int] = set()
        for fn in self.functions_named(bare):
            positions |= fn.scheduled_params | fn.retained_params
        return frozenset(positions)

    def schedules(self, bare: str, depth: int = 1) -> bool:
        """Whether calling *bare* can schedule an event, looking through
        at most *depth* levels of known callees."""
        return self._schedules(bare, depth, frozenset())

    def _schedules(self, bare: str, depth: int, seen: frozenset[str]) -> bool:
        if bare in seen:
            return False
        for fn in self.functions_named(bare):
            if fn.schedules_directly:
                return True
        if depth <= 0:
            return False
        seen = seen | {bare}
        for fn in self.functions_named(bare):
            for callee in fn.calls:
                if self._schedules(callee, depth - 1, seen):
                    return True
        return False


# -- summary extraction --------------------------------------------------------


def callee_bare_name(call: ast.Call) -> str | None:
    """Bare name a call resolves under (``x.y.z(...)`` -> ``z``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _positional_params(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    *,
    is_method: bool,
) -> tuple[str, ...]:
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _walk_body(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> Iterator[ast.AST]:
    """Walk *fn*'s body without descending into nested def/class scopes
    (their effects are summarised separately)."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _summarise(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    module: str,
    qualname: str,
    *,
    is_method: bool,
    schedule_primitives: Sequence[str],
    callback_sinks: Sequence[tuple[str, int]],
) -> FunctionInfo:
    params = _positional_params(fn, is_method=is_method)
    index_of = {name: i for i, name in enumerate(params)}
    sink_pos = dict(callback_sinks)
    primitives = set(schedule_primitives)

    schedules_directly = False
    # A schedule entry written in place: the body reads `<x>._lanes` or
    # `<x>._heap` and appends or pushes.  The append's receiver is not
    # traced (`Mailbox.put` appends to a lane it bound to a local), which
    # over-approximates, as bare-name call resolution does.
    reads_schedule = writes_entry = False
    scheduled: set[int] = set()
    retained: set[int] = set()
    calls: set[str] = set()

    def note_param(name: str, into: set[int]) -> None:
        idx = index_of.get(name)
        if idx is not None:
            into.add(idx)

    for node in _walk_body(fn):
        if isinstance(node, ast.Call):
            bare = callee_bare_name(node)
            if bare is None:
                continue
            calls.add(bare)
            if bare in primitives:
                schedules_directly = True
            writes_entry = writes_entry or bare in _SCHEDULE_WRITES
            pos = sink_pos.get(bare)
            if pos is not None and pos < len(node.args):
                arg = node.args[pos]
                if isinstance(arg, ast.Name):
                    note_param(arg.id, scheduled)
            if isinstance(node.func, ast.Attribute) and bare in _RETAINING_METHODS:
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        note_param(arg.id, retained)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            stores = any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
            )
            if stores and isinstance(value, ast.Name):
                note_param(value.id, retained)
        elif isinstance(node, ast.Attribute) and node.attr in _SCHEDULE_ATTRS:
            reads_schedule = True

    return FunctionInfo(
        module=module,
        qualname=qualname,
        name=fn.name,
        params=params,
        schedules_directly=schedules_directly or (reads_schedule and writes_entry),
        scheduled_params=frozenset(scheduled),
        retained_params=frozenset(retained),
        calls=frozenset(calls),
        line=fn.lineno,
    )


def summarise_module(
    path: str,
    tree: ast.Module,
    *,
    schedule_primitives: Sequence[str],
    callback_sinks: Sequence[tuple[str, int]],
) -> ModuleInfo:
    """Phase-one pass over one parsed file."""
    module = module_name_for_path(path)
    info = ModuleInfo(name=module, path=path.replace("\\", "/"), tree=tree)

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                info.functions.append(
                    _summarise(
                        child,
                        module,
                        qualname,
                        is_method=in_class,
                        schedule_primitives=schedule_primitives,
                        callback_sinks=callback_sinks,
                    )
                )
                visit(child, f"{qualname}.<locals>.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return info


def build_project(
    parsed: Sequence[tuple[str, ast.Module]],
    *,
    schedule_primitives: Sequence[str],
    callback_sinks: Sequence[tuple[str, int]],
) -> ProjectModel:
    """Assemble the cross-module model from (path, tree) pairs."""
    project = ProjectModel()
    for path, tree in parsed:
        project.add_module(
            summarise_module(
                path,
                tree,
                schedule_primitives=schedule_primitives,
                callback_sinks=callback_sinks,
            )
        )
    return project
