"""Every public top-level def of ``src/repro`` is reached by a program.

A def that only tests call is code the package carries for no run.  The
scan starts from what runs on its own -- ``repro.cli:main``, the
module-level code of every package module, the defs a project decorator
registers, and all of ``bench/`` and ``examples/`` (the programs of
:mod:`tests.programs`) -- and follows names: a reached body reaches
every top-level def its names name.  A name is an ``ast.Name`` id, an
``ast.Attribute`` attr or an identifier-like string constant, and defs
that share a name are reached together, so the scan over-approximates.
Imports and ``__all__`` lists re-export names without calling anything,
so they root nothing.  The closure is transitive: a def that only an
unreached def names is unreached too.
"""

import ast

from tests.programs import PACKAGE, program_files

_ROUND_TRIP = (
    "writer half of the experiment-JSON round trip; `eevfs compare --config` "
    "runs the reader, load_experiment_config"
)
_SANITIZER = "a schedule-determinism check that tests/devtools/test_races.py runs"
_REPETITION = (
    "EXPERIMENTS.md's statistical backing, run by benchmarks/test_repetition.py"
)

#: Public top-level defs no program reaches, each with the reason it stays.
NOT_CALLED_BY_A_PROGRAM = {
    "repro.core.configio:cluster_to_dict": _ROUND_TRIP,
    "repro.core.configio:config_to_dict": _ROUND_TRIP,
    "repro.core.configio:save_experiment_config": _ROUND_TRIP,
    "repro.devtools.sanitizer:ScheduleProbe": _SANITIZER,
    "repro.devtools.sanitizer:ScheduleRaceError": _SANITIZER,
    "repro.devtools.sanitizer:ScheduleShapeHasher": (
        "the schedule digest that tests/golden/shape.json and "
        "tests/golden/scenarios.json pin"
    ),
    "repro.devtools.sanitizer:TimeBucketHasher": _SANITIZER,
    "repro.devtools.sanitizer:assert_schedule_invariant": _SANITIZER,
    "repro.devtools.sanitizer:perturbed_digest_run": _SANITIZER,
    "repro.disk.energy:standby_energy_saved": (
        "the closed form the break-even tests check against"
    ),
    "repro.experiments.ablations:ablate_dynamic_prefetch": (
        "E3 of EXPERIMENTS.md, pinned by tests/golden/dynamic.json"
    ),
    "repro.experiments.repetition:RepeatedMetric": _REPETITION,
    "repro.experiments.repetition:RepetitionResult": _REPETITION,
    "repro.experiments.repetition:repeat_pair": _REPETITION,
    "repro.experiments.repetition:t_critical_95": _REPETITION,
    "repro.traces.stats:popularity_ranking": (
        "the reference ranking tests/core/test_server_unit.py checks the "
        "server's placement against"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: The console entry point (``[project.scripts]`` in pyproject.toml).
_ENTRY_POINT = ("repro.cli", "main")


def _names_in(node):
    """Every name by which *node* could reach a def."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            if child.value.isidentifier():
                names.add(child.value)
    return names


def _is_export(statement):
    """An import or an ``__all__`` assignment: names listed, none called."""
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in statement.targets
    )


def _decorator_name(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr
    return getattr(decorator, "id", None)


def unreached_defs(modules, scripts):
    """``"module:name"`` of every public top-level def in *modules*
    (dotted module name -> tree) that the roots do not reach; *scripts*
    are trees that run whole."""
    defs = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, _DEFS):
                defs.setdefault(node.name, []).append((module, node))

    pending = set()
    for tree in scripts:
        pending |= _names_in(tree)
    reached = set()
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, _DEFS):
                if not _is_export(node):
                    pending |= _names_in(node)
            elif (module, node.name) == _ENTRY_POINT or any(
                _decorator_name(d) in defs for d in node.decorator_list
            ):
                reached.add((module, node.name))
                pending |= _names_in(node)

    followed = set()
    while pending:
        name = pending.pop()
        followed.add(name)
        for module, node in defs.get(name, ()):
            if (module, name) not in reached:
                reached.add((module, name))
                pending |= _names_in(node) - followed
    return {
        f"{module}:{name}"
        for name, found in defs.items()
        if not name.startswith("_")
        for module, _ in found
        if (module, name) not in reached
    }


def _program_trees():
    """The package's modules by dotted name, and the other programs."""
    modules, scripts = {}, []
    for path, tree in program_files():
        if path.is_relative_to(PACKAGE):
            parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules[".".join(parts)] = tree
        else:
            scripts.append(tree)
    return modules, scripts


def test_every_public_def_is_reached_by_a_program():
    """A def that only tests call goes with its tests, unless the table
    above says why it stays; an exemption that is reached or gone fails
    too."""
    unreached = unreached_defs(*_program_trees())
    exempt = set(NOT_CALLED_BY_A_PROGRAM)
    # (unreached and not exempt, exempt but reached or gone)
    assert (sorted(unreached - exempt), sorted(exempt - unreached)) == ([], [])


def test_a_chain_under_an_unreached_head_is_unreached():
    """Names alone would count ``middle`` and ``tail`` as called."""
    modules = {
        "pkg.m": ast.parse(
            "def head():\n    return middle()\n\n"
            "def middle():\n    return tail()\n\n"
            "def tail():\n    return 0\n\n"
            "__all__ = ['head']\n"
        )
    }
    assert unreached_defs(modules, []) == {"pkg.m:head", "pkg.m:middle", "pkg.m:tail"}
    assert unreached_defs(modules, [ast.parse("head()")]) == set()


def test_a_registered_def_is_reached():
    modules = {
        "pkg.rules": ast.parse(
            "def register(cls):\n    return cls\n\n"
            "@register\nclass Rule:\n    def check(self):\n        return helper()\n\n"
            "def helper():\n    return 0\n"
        )
    }
    assert unreached_defs(modules, []) == set()
