"""Continuation-safety and scheduling-order rules (simlint v2).

The hot path runs on ``call_soon``/``call_later`` continuations, which
create hazard classes the per-node v1 rules cannot see: a closure
scheduled *now* but run *later* observes the loop variable's final
value, and two callbacks at the same ``(time, priority)`` run in
whatever order a ``set`` hashed them.  These rules use the cross-module
symbol table (:mod:`repro.devtools.symbols`) to reason about *when*
code runs, not just what it says:

========  ==============================================================
CONT001   loop variable late-bound into a scheduled callback
SIM003    same-(time, priority) scheduling driven by set/dict order
DET004    RNG stream derived from an unordered collection
LNT001    suppression pragma that silences nothing (engine-computed)
========  ==============================================================

As everywhere in simlint the analysis is approximate and says so:
closures are only traced when passed directly (or by local ``def``
name) into a callback sink, and callee behaviour is resolved by bare
name across the project model -- conservative in the direction of
flagging, with ``# simlint: ignore[rule]`` (now itself audited by
LNT001) as the reviewed escape hatch.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules import Edit, LintContext, register, Rule
from repro.devtools.symbols import callee_bare_name

# -- shared AST plumbing -------------------------------------------------------


def _target_names(target: ast.expr) -> set[str]:
    """Names bound by a loop/assignment target (handles tuple nesting)."""
    names: set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _own_statements(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk *body* without descending into nested def/class scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _closure_params(fn: "ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef") -> set[str]:
    args = fn.args
    return {
        a.arg
        for a in args.posonlyargs + args.args + args.kwonlyargs
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    }


def _captured(
    fn: "ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef", names: set[str]
) -> list[str]:
    """Which of *names* the closure reads free (not shadowed by a
    parameter -- ``lambda d=disk:`` binds at definition time and is the
    sanctioned idiom)."""
    shadowed = _closure_params(fn)
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    found: set[str] = set()
    for node in _own_statements(body):  # type: ignore[arg-type]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in names and node.id not in shadowed:
                found.add(node.id)
    return sorted(found)


# -- CONT001: late-bound loop variable in a scheduled callback -----------------


@register
class Cont001LateBoundLoopVar(Rule):
    """CONT001: a callback scheduled from inside a loop closes over the
    loop variable.

    Python closures capture *variables*, not values: every
    ``call_soon(lambda: use(disk))`` scheduled in a ``for disk in ...``
    loop runs after the loop finished and sees the **last** ``disk``.
    The engine dispatches such callbacks at the same timestamp later in
    the run, so the bug produces quietly wrong attribution (all
    telemetry reads the final disk), not a crash.

    A callback sink is a direct schedule primitive
    (:attr:`LintConfig.callback_sinks`: ``call_soon`` takes the callable
    first, ``call_later`` second), an append onto a ``callbacks``
    container, or -- via the cross-module symbol table -- any project
    function that forwards or retains the parameter at that position
    (``telemetry.gauge(name, fn)`` stores ``fn`` forever).  Closures are
    traced when passed directly as the sink argument or by the name of a
    ``def`` in the same loop body.  Default-binding
    (``lambda d=disk: ...``) captures the value at definition time and
    is the supported idiom.
    """

    id = "CONT001"
    summary = "loop variable late-bound into a scheduled callback"
    rationale = (
        "A continuation scheduled in a loop outlives the iteration that "
        "created it; reading the loop variable at call time aliases "
        "every callback onto the final element."
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        sink_pos = dict(ctx.config.callback_sinks)
        project = ctx.project

        def sink_positions(call: ast.Call) -> set[int]:
            bare = callee_bare_name(call)
            if bare is None:
                return set()
            positions: set[int] = set()
            if bare in sink_pos:
                positions.add(sink_pos[bare])
            elif bare == "append" and isinstance(call.func, ast.Attribute):
                owner = call.func.value
                if isinstance(owner, ast.Attribute) and owner.attr == "callbacks":
                    positions.add(0)
            elif project is not None:
                positions |= set(project.callback_param_positions(bare))
            return positions

        def scan_loop(loop: "ast.For | ast.AsyncFor", targets: set[str]) -> Iterator[Diagnostic]:
            local_defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
            for node in _own_statements(loop.body):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local_defs[node.name] = node
            for node in _own_statements(loop.body):
                if not isinstance(node, ast.Call):
                    continue
                for pos in sink_positions(node):
                    if pos >= len(node.args):
                        continue
                    arg = node.args[pos]
                    closure: "ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef | None"
                    closure = None
                    if isinstance(arg, ast.Lambda):
                        closure = arg
                    elif isinstance(arg, ast.Name) and arg.id in local_defs:
                        closure = local_defs[arg.id]
                    if closure is None:
                        continue
                    for name in _captured(closure, targets):
                        yield self.diagnostic(
                            ctx,
                            closure,
                            f"scheduled callback captures loop variable "
                            f"`{name}` by reference; it is late-bound to the "
                            f"final iteration value -- bind it as a default "
                            f"(`lambda {name}={name}: ...`)",
                        )

        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                targets = _target_names(node.target)
                if targets:
                    yield from scan_loop(node, targets)


# -- SIM003: scheduling order from unordered iteration -------------------------


@register
class Sim003UnorderedScheduling(Rule):
    """SIM003: events scheduled from a loop over an unordered
    collection.

    The engine breaks same-``(time, priority)`` ties by insertion
    sequence, so *submission order is execution order* within a lane.
    A ``for node in self.waiting: node.succeed()`` over a ``set`` makes
    that sequence follow hash order -- two runs with different
    ``PYTHONHASHSEED`` execute the same events in different order, and
    the schedule-perturbation sanitizer will flag the divergence at
    runtime.  This rule catches it statically.

    Fires on ``for`` loops whose iterable is a set literal,
    ``set(...)``/``frozenset(...)``, or a bare ``.keys()``/``.values()``
    (the DET003 detector) and whose body calls a schedule primitive
    (:attr:`LintConfig.schedule_primitives`) -- directly, or one
    interprocedural hop away through any project function that itself
    schedules (resolved by bare name in the symbol table).  Unlike
    DET003 it applies *everywhere*: scheduling from hash order is wrong
    in any package.
    """

    id = "SIM003"
    summary = "same-(time, priority) scheduling driven by unordered iteration"
    rationale = (
        "Zero-delay lanes are FIFO in submission order; feeding them "
        "from a set couples the event schedule to PYTHONHASHSEED, the "
        "exact nondeterminism the perturbation sanitizer exists to "
        "catch."
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        from repro.devtools.checks import Det003UnorderedIteration

        primitives = set(ctx.config.schedule_primitives)
        project = ctx.project

        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            what = Det003UnorderedIteration._unordered(node.iter)
            if what is None:
                continue
            for call in _own_statements(node.body):
                if not isinstance(call, ast.Call):
                    continue
                bare = callee_bare_name(call)
                if bare is None:
                    continue
                if bare in primitives:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"loop over {what} schedules events (`{bare}` at "
                        f"line {call.lineno}): same-timestamp order follows "
                        "hash order; iterate sorted(...) or an ordered "
                        "structure",
                    )
                    break
                if project is not None and project.schedules(bare, depth=0):
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"loop over {what} calls `{bare}` (line "
                        f"{call.lineno}), which schedules events: "
                        "same-timestamp order follows hash order; iterate "
                        "sorted(...) or an ordered structure",
                    )
                    break


# -- DET004: RNG stream derived from unordered collection ----------------------


@register
class Det004UnorderedStreamDerivation(Rule):
    """DET004: a named RNG stream derived from an unordered source.

    ``RandomStreams`` names are hashed into seed entropy, so the *name*
    must be stable across runs.  Building one from a ``set``, a dict
    view, or an ``id()`` (CPython addresses change every process) makes
    the stream -- and every draw after it -- run-dependent:
    ``streams.stream(f"repair:{set_of_nodes}")`` or
    ``spawn(tuple(d.keys()))`` reseed differently per run.

    Fires on calls to the stream factories in
    :attr:`LintConfig.stream_factories` whose argument subtree contains
    a set literal, ``set(...)``/``frozenset(...)``, ``.keys()`` /
    ``.values()``, or ``id(...)`` without an order-normalising wrapper
    (``sorted``/``len``/``sum``/``min``/``max``) between the factory
    and the offender.
    """

    id = "DET004"
    summary = "RNG stream derived from an unordered collection"
    rationale = (
        "Stream names feed SHA-256 seed derivation; an unstable name "
        "desynchronises that stream and every downstream draw between "
        "same-seed runs."
    )

    _NORMALISERS = frozenset({"sorted", "len", "sum", "min", "max"})

    def _offence(self, expr: ast.expr) -> tuple[ast.AST, str] | None:
        """First unordered source in *expr* not behind a normaliser."""
        if isinstance(expr, ast.Call):
            bare = callee_bare_name(expr)
            if bare in self._NORMALISERS:
                return None
            if bare in ("set", "frozenset") and isinstance(expr.func, ast.Name):
                return expr, f"{bare}(...)"
            if bare == "id" and isinstance(expr.func, ast.Name):
                return expr, "id(...) (per-process address)"
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ("keys", "values")
                and not expr.args
            ):
                return expr, f".{expr.func.attr}() of a dict"
        if isinstance(expr, ast.Set):
            return expr, "a set literal"
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.keyword, ast.FormattedValue)):
                inner = child.value if isinstance(child, ast.keyword) else child
                if isinstance(inner, ast.expr):
                    found = self._offence(inner)
                    if found is not None:
                        return found
        return None

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        factories = set(ctx.config.stream_factories)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            bare = callee_bare_name(node)
            if bare not in factories:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                found = self._offence(arg)
                if found is not None:
                    _, what = found
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"stream derivation `{bare}(...)` built from {what}: "
                        "the seed entropy varies across runs; normalise with "
                        "sorted(...) first",
                    )
                    break


# -- LNT001: stale suppression pragmas -----------------------------------------


@register
class Lnt001UnusedSuppression(Rule):
    """LNT001: a ``# simlint: ignore[...]`` pragma that silences
    nothing.

    Stale waivers are worse than no waivers: they document a hazard
    that no longer exists and pre-silence the rule if the hazard ever
    comes back.  The runner cross-references every pragma against the
    findings it actually suppressed in the same run and flags entries
    that caught nothing; ``--fix`` rewrites the bracket down to the
    rules still earning their keep (or strips the pragma -- and a
    pragma-only line -- entirely).

    Named rules are only judged when they ran (a ``--select DET001``
    run says nothing about a SIM002 waiver); bare ``ignore`` pragmas
    only under the full rule set; rule ids the registry has never heard
    of are always flagged.  This rule is computed by the runner from
    suppression bookkeeping -- per-file ``check`` yields nothing.
    """

    id = "LNT001"
    summary = "suppression pragma that silences nothing"
    rationale = (
        "Every waiver is a standing claim that a finding was reviewed "
        "and accepted; once the finding is gone the claim is false and "
        "hides the rule's next real catch."
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        return iter(())

    def fix(self, ctx: LintContext, diagnostic: Diagnostic) -> Edit | None:
        if diagnostic.fix_hint is None:
            return None
        if diagnostic.fix_hint == "":
            return Edit(line=diagnostic.line, new_text="", delete=True)
        return Edit(line=diagnostic.line, new_text=diagnostic.fix_hint)
