"""The simlint rules.

Six rules guard the invariants the reproduction's results depend on:

========  ==============================================================
DET001    stochastic draws must flow through ``RandomStreams``
DET002    simulation code must not read the wall clock
DET003    no iteration over unordered collections in order-sensitive code
PAR001    nothing unpicklable in process-pool spec modules
SIM001    no swallowed broad exceptions around the event loop
SIM002    monitors, resources and wire records must be slotted
========  ==============================================================

Every rule is a pure function of the AST (plus path scoping from
:class:`~repro.devtools.rules.LintConfig`); none execute the code under
analysis.  Static analysis is necessarily approximate -- each docstring
states exactly what is and is not detected, and
``# simlint: ignore[rule]`` waives confirmed false positives.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules import Edit, LintContext, path_in_scope, register, Rule

# -- shared import tracking ----------------------------------------------------


def _module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Names bound to *module* by ``import`` statements (``numpy`` ->
    {"numpy", "np"} for ``import numpy as np``)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module or item.name.startswith(module + "."):
                    aliases.add((item.asname or item.name).split(".")[0])
    return aliases


def _from_imports(tree: ast.Module, module: str) -> dict[str, ast.ImportFrom]:
    """Local name -> ImportFrom node, for ``from <module> import ...``."""
    bound: dict[str, ast.ImportFrom] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for item in node.names:
                bound[item.asname or item.name] = node
    return bound


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains as a dotted string (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# -- DET001: RandomStreams discipline ------------------------------------------

#: Functions of numpy's legacy *global* RandomState -- every call consumes
#: shared hidden state, so two call sites perturb each other.
_NP_LEGACY = frozenset(
    {
        "seed", "random", "rand", "randn", "randint", "random_sample",
        "random_integers", "sample", "ranf", "bytes", "choice", "shuffle",
        "permutation", "uniform", "normal", "standard_normal", "exponential",
        "poisson", "binomial", "beta", "gamma", "lognormal", "pareto",
        "zipf", "get_state", "set_state",
    }
)


@register
class Det001RandomStreams(Rule):
    """DET001: stochastic draws must flow through ``RandomStreams``.

    Flags, everywhere except :attr:`LintConfig.rng_module`:

    * any import of the stdlib ``random`` module (its draws share one
      hidden global generator seeded from the OS);
    * calls to numpy's legacy global-state functions
      (``np.random.rand`` and friends);
    * ``np.random.default_rng()`` *without a seed argument* -- entropy
      from the OS makes the run unreproducible.  ``default_rng(seed)``
      with an explicit seed is allowed (trace generators take seeded
      generators by construction).
    """

    id = "DET001"
    summary = "stochastic draw outside RandomStreams"
    rationale = (
        "Paired experiments (PF vs NPF) and repeated same-seed runs are "
        "only comparable when every draw comes from a named, seeded "
        "stream; one stray global draw desynchronises every stream "
        "created after it."
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return not path_in_scope(ctx.path, [ctx.config.rng_module])

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        tree = ctx.tree
        numpy_aliases = _module_aliases(tree, "numpy")

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "random" or item.name.startswith("random."):
                        yield self.diagnostic(
                            ctx,
                            node,
                            "stdlib `random` is a hidden global generator; "
                            "draw from a RandomStreams stream instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.diagnostic(
                        ctx,
                        node,
                        "stdlib `random` is a hidden global generator; "
                        "draw from a RandomStreams stream instead",
                    )
                elif node.module == "numpy.random" and node.level == 0:
                    for item in node.names:
                        if item.name in _NP_LEGACY:
                            yield self.diagnostic(
                                ctx,
                                node,
                                f"numpy.random.{item.name} uses the legacy "
                                "global RandomState; use RandomStreams",
                            )

        # Attribute chains: np.random.<legacy>() and unseeded default_rng().
        for node in ast.walk(tree):
            dotted = None
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) < 3 or parts[-2] != "random":
                # Also catch `from numpy import random` -> random.rand().
                if not (len(parts) == 2 and parts[0] == "random"):
                    continue
            root = parts[0]
            leaf = parts[-1]
            np_random = (root in numpy_aliases and parts[1] == "random") or (
                root == "random"
                and "random" in _from_imports(tree, "numpy")
            )
            if not np_random:
                continue
            if isinstance(node, ast.Call) and leaf == "default_rng":
                if not node.args and not node.keywords:
                    yield self.diagnostic(
                        ctx,
                        node,
                        "unseeded np.random.default_rng() draws OS entropy; "
                        "pass a seed or use RandomStreams",
                    )
            elif isinstance(node, ast.Call) and leaf in _NP_LEGACY:
                yield self.diagnostic(
                    ctx,
                    node,
                    f"np.random.{leaf} uses the legacy global RandomState; "
                    "use RandomStreams",
                )

        # `from numpy.random import default_rng` then a bare call.
        np_random_names = _from_imports(tree, "numpy.random")
        if "default_rng" in np_random_names:
            local = "default_rng"
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == local
                    and not node.args
                    and not node.keywords
                ):
                    yield self.diagnostic(
                        ctx,
                        node,
                        "unseeded default_rng() draws OS entropy; "
                        "pass a seed or use RandomStreams",
                    )


# -- DET002: no wall clock -----------------------------------------------------

_TIME_FNS = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    }
)
_DATETIME_FNS = frozenset({"now", "today", "utcnow"})


@register
class Det002WallClock(Rule):
    """DET002: simulation code must not read the wall clock.

    Simulated time is :attr:`Simulator.now`; host time leaking into the
    model makes results depend on machine load.  Flags ``time.time`` /
    ``perf_counter`` / ``monotonic`` / ``process_time`` (and ``_ns``
    variants, called or referenced), ``from time import`` of the same,
    and ``datetime.now()`` / ``today()`` / ``utcnow()``.  No module is
    exempt: host timing belongs to the benchmark (``python -m bench``),
    which lives outside ``src/``.  A deliberate read, such as the speedup
    timer in ``meanfield.cross_validate``, carries a per-line
    ``# simlint: ignore[DET002]``.
    """

    id = "DET002"
    summary = "wall-clock read in simulation code"
    rationale = (
        "docs/performance.md promises byte-identical metrics for a seed; "
        "any wall-clock dependence breaks that and hides real scheduling "
        "bugs behind machine noise."
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        tree = ctx.tree
        time_aliases = _module_aliases(tree, "time")
        datetime_aliases = _module_aliases(tree, "datetime")
        time_names = _from_imports(tree, "time")
        datetime_names = _from_imports(tree, "datetime")

        for local, node in time_names.items():
            for item in node.names:
                if item.name in _TIME_FNS and (item.asname or item.name) == local:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"time.{item.name} reads the wall clock; "
                        "use the simulation clock (sim.now)",
                    )

        for node in ast.walk(tree):
            dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
            if dotted is None:
                continue
            parts = dotted.split(".")
            root, leaf = parts[0], parts[-1]
            if root in time_aliases and len(parts) == 2 and leaf in _TIME_FNS:
                yield self.diagnostic(
                    ctx,
                    node,
                    f"time.{leaf} reads the wall clock; "
                    "use the simulation clock (sim.now)",
                )
            elif leaf in _DATETIME_FNS:
                owner = parts[-2] if len(parts) >= 2 else ""
                from_datetime = owner in ("datetime", "date") and (
                    owner in datetime_names
                    or (len(parts) >= 3 and parts[-3] in datetime_aliases)
                )
                if from_datetime:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"datetime wall-clock read ({owner}.{leaf}); "
                        "simulation code must use sim.now",
                    )


# -- DET003: ordered iteration -------------------------------------------------


@register
class Det003UnorderedIteration(Rule):
    """DET003: no ``for`` loops over unordered collections in
    order-sensitive packages.

    In code that schedules events or accumulates metrics
    (:attr:`LintConfig.ordered_packages`), iterating a ``set`` (hash
    order, perturbed by ``PYTHONHASHSEED``) -- or a ``dict`` view whose
    insertion order may itself descend from one -- can reorder
    same-timestamp events between runs.  Flags ``for`` statements whose
    iterable is a set literal, a ``set(...)``/``frozenset(...)`` call,
    or a bare ``.values()``/``.keys()`` call; wrap the iterable in
    ``sorted(...)`` (the mechanical ``--fix``) or iterate an explicitly
    ordered structure.  Comprehensions feeding order-insensitive
    reducers (``sum``, ``min``, ``max``, ...) are deliberately not
    flagged.
    """

    id = "DET003"
    summary = "iteration over unordered collection in order-sensitive code"
    rationale = (
        "The engine breaks same-timestamp ties by insertion sequence; "
        "feeding it work in hash order silently couples results to "
        "PYTHONHASHSEED."
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return path_in_scope(ctx.path, list(ctx.config.ordered_packages))

    @staticmethod
    def _unordered(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in ("set", "frozenset"):
                return f"{expr.func.id}(...)"
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ("values", "keys")
                and not expr.args
                and not expr.keywords
            ):
                return f".{expr.func.attr}() of a dict"
        return None

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                what = self._unordered(node.iter)
                if what is not None:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"for-loop over {what}: order feeds event scheduling "
                        "or metrics; wrap in sorted(...)",
                        fixable=True,
                    )

    def fix(self, ctx: LintContext, diagnostic: Diagnostic) -> Edit | None:
        # Rewrite `for X in ITER:` -> `for X in sorted(ITER):` when the
        # whole iterable sits on the diagnostic's line.
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.For, ast.AsyncFor))
                and node.lineno == diagnostic.line
                and self._unordered(node.iter) is not None
            ):
                it = node.iter
                if it.end_lineno != it.lineno:
                    return None
                line = ctx.lines[it.lineno - 1]
                start, end = it.col_offset, it.end_col_offset or len(line)
                new = f"{line[:start]}sorted({line[start:end]}){line[end:]}"
                return Edit(line=it.lineno, new_text=new)
        return None


# -- PAR001: picklable spec modules --------------------------------------------


@register
class Par001Unpicklable(Rule):
    """PAR001: no lambdas, closures, or local classes in modules whose
    objects cross the process-pool boundary.

    ``pickle`` serialises functions and classes *by qualified name*: a
    lambda, a function defined inside another function, or a class
    defined inside a function has no importable name, so a spec that
    captures one dies inside the worker with an opaque
    ``PicklingError``.  The rule flags every such definition in
    :attr:`LintConfig.picklable_modules` (the specs plus every module
    whose types their fields hold) -- stricter than strictly necessary,
    because "this lambda never ends up in instance state" is exactly the
    kind of claim that silently stops being true.
    """

    id = "PAR001"
    summary = "unpicklable construct in process-pool spec module"
    rationale = (
        "TraceSpec/JobSpec travel to ProcessPoolExecutor workers; "
        "pickling them must never depend on which fields happen to be "
        "populated."
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return path_in_scope(ctx.path, list(ctx.config.picklable_modules))

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        # Walk with an explicit stack so we know each node's enclosing
        # function (ast.walk loses parentage).
        def visit(node: ast.AST, in_function: bool) -> Iterator[Diagnostic]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Lambda):
                    yield self.diagnostic(
                        ctx, child, "lambda cannot be pickled by qualified name"
                    )
                    yield from visit(child, in_function)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if in_function:
                        yield self.diagnostic(
                            ctx,
                            child,
                            f"closure `{child.name}` cannot be pickled "
                            "by qualified name",
                        )
                    yield from visit(child, True)
                elif isinstance(child, ast.ClassDef):
                    if in_function:
                        yield self.diagnostic(
                            ctx,
                            child,
                            f"local class `{child.name}` cannot be pickled "
                            "by qualified name",
                        )
                    yield from visit(child, in_function)
                else:
                    yield from visit(child, in_function)

        yield from visit(ctx.tree, False)


# -- SIM001: no swallowed broad exceptions -------------------------------------


def _is_broad(handler_type: ast.expr | None) -> bool:
    if handler_type is None:
        return True  # bare except
    if isinstance(handler_type, ast.Name):
        return handler_type.id in ("Exception", "BaseException")
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(el) for el in handler_type.elts)
    return False


def _swallows(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


@register
class Sim001SwallowedException(Rule):
    """SIM001: no bare ``except:`` (ever) and no swallowed broad
    ``except Exception: pass`` in event-loop-adjacent packages.

    A failed event the engine cannot surface is corruption that shows up
    as *wrong numbers*, not a crash.  Inside
    :attr:`LintConfig.event_loop_packages`, a bare ``except`` is flagged
    unconditionally (it also eats ``StopSimulation`` and
    ``KeyboardInterrupt``); ``except Exception`` / ``except
    BaseException`` is flagged only when the handler body does nothing
    but ``pass``.  Narrow handlers (``except DiskFailureError: pass``)
    are the supported idiom and stay legal.
    """

    id = "SIM001"
    summary = "swallowed broad exception near the event loop"
    rationale = (
        "Simulator.step re-raises unhandled event failures precisely so "
        "errors in processes cannot vanish; a broad swallow upstream "
        "defeats that guarantee."
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return path_in_scope(ctx.path, list(ctx.config.event_loop_packages))

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.diagnostic(
                    ctx,
                    node,
                    "bare `except:` can swallow event-loop corruption "
                    "(and StopSimulation); catch specific exceptions",
                )
            elif _is_broad(node.type) and _swallows(node.body):
                yield self.diagnostic(
                    ctx,
                    node,
                    "`except Exception: pass` swallows event-loop "
                    "corruption; handle or re-raise",
                )


# -- SIM002: slotted monitors, resources and wire records ----------------------


def _is_dataclass_decorator(node: ast.expr) -> bool:
    """``dataclass`` or ``dataclasses.dataclass``, bare or called."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id == "dataclass"
    return isinstance(node, ast.Attribute) and node.attr == "dataclass"


@register
class Sim002Slots(Rule):
    """SIM002: every class in the slotted modules is slotted: it declares
    ``__slots__`` or is a ``dataclass(..., slots=True)``.

    The engine hot-path work (PR 3) cut per-instance memory by slotting
    monitors and resources, and every wire record is built once per
    message -- one ``__dict__``-bearing class reintroduces a dict per
    request on the hottest allocation sites.  The rule checks the
    modules in :attr:`LintConfig.slotted_modules`.  The ``--fix``
    rewrite adds ``slots=True`` to a dataclass decorator (a ``__slots__``
    tuple would clash with field defaults); on any other class it
    inserts a ``__slots__`` tuple derived from the attributes the class
    assigns on ``self``.
    """

    id = "SIM002"
    summary = "missing __slots__ on monitor/resource/wire-record class"
    rationale = (
        "docs/performance.md's memory numbers assume slotted hot-path "
        "objects; an unslotted subclass or record silently regresses them."
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return path_in_scope(ctx.path, list(ctx.config.slotted_modules))

    @staticmethod
    def _dataclass_decorator(cls: ast.ClassDef) -> ast.expr | None:
        for decorator in cls.decorator_list:
            if _is_dataclass_decorator(decorator):
                return decorator
        return None

    @classmethod
    def _slotted_dataclass(cls, node: ast.ClassDef) -> bool:
        decorator = cls._dataclass_decorator(node)
        return isinstance(decorator, ast.Call) and any(
            keyword.arg == "slots"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in decorator.keywords
        )

    @staticmethod
    def _declares_slots(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        return True
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                    return True
        return False

    def _unslotted(self, node: ast.ClassDef) -> bool:
        return not self._declares_slots(node) and not self._slotted_dataclass(node)

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not self._unslotted(node):
                continue
            if self._dataclass_decorator(node) is not None:
                message = (
                    f"dataclass `{node.name}` must set slots=True "
                    "(hot-path memory guarantee)"
                )
            else:
                message = (
                    f"class `{node.name}` must declare __slots__ "
                    "(hot-path memory guarantee)"
                )
            yield self.diagnostic(ctx, node, message, fixable=True)

    @staticmethod
    def _self_attrs(cls: ast.ClassDef) -> list[str]:
        seen: list[str] = []
        for node in ast.walk(cls):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in seen
                ):
                    seen.append(target.attr)
        return seen

    @staticmethod
    def _add_slots_argument(ctx: LintContext, decorator: ast.expr) -> Edit | None:
        """``@dataclass`` -> ``@dataclass(slots=True)`` and
        ``@dataclass(frozen=True)`` -> ``@dataclass(frozen=True, slots=True)``;
        None when the decorator spans lines or already passes ``slots``."""
        if decorator.end_lineno != decorator.lineno or decorator.end_col_offset is None:
            return None
        line = ctx.lines[decorator.lineno - 1]
        end = decorator.end_col_offset
        if not isinstance(decorator, ast.Call):
            return Edit(
                line=decorator.lineno,
                new_text=f"{line[:end]}(slots=True){line[end:]}",
            )
        if any(keyword.arg == "slots" for keyword in decorator.keywords):
            return None
        close = end - 1  # the call's closing parenthesis
        head = line[:close].rstrip()
        if head.endswith(","):  # a trailing comma already separates it
            args = " slots=True"
        elif decorator.args or decorator.keywords:
            args = ", slots=True"
        else:
            args = "slots=True"
        return Edit(line=decorator.lineno, new_text=f"{head}{args}{line[close:]}")

    def fix(self, ctx: LintContext, diagnostic: Diagnostic) -> Edit | None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.lineno == diagnostic.line:
                if not self._unslotted(node):
                    return None
                decorator = self._dataclass_decorator(node)
                if decorator is not None:
                    return self._add_slots_argument(ctx, decorator)
                attrs = self._self_attrs(node)
                first = node.body[0]
                indent = " " * first.col_offset
                at = first.lineno
                if (
                    isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)
                ):
                    at = (first.end_lineno or first.lineno) + 1
                items = ", ".join(f'"{a}"' for a in attrs)
                if len(attrs) == 1:
                    items += ","
                return Edit(
                    line=at, new_text=f"{indent}__slots__ = ({items})", insert=True
                )
        return None
