"""Every public def of ``src/repro`` is reached by a program.

A def that only tests call is code the package carries for no run.  The
defs are the top-level functions and classes of every package module and
the public methods and properties of every top-level class.  The scan
starts from what runs on its own -- ``repro.cli:main``, the module-level
code of every package module, the defs a project decorator registers,
and all of ``bench/`` and ``examples/`` (the programs of
:mod:`tests.programs`) -- and follows names: a reached body reaches every
def its names name.  A name is an ``ast.Name`` id, an ``ast.Attribute``
attr or an identifier-like string constant, and defs that share a name
are reached together, so the scan over-approximates.  A reached class
follows its decorators, bases and class-body statements -- fields,
dunders and private methods -- but not the bodies of its public methods:
a public method is reached when its own name is followed, and its body
is followed once its class is reached too, so an unreached class roots
nothing.  Imports and ``__all__`` lists re-export names without calling
anything, so they root nothing.  The closure is transitive: a def that
only an unreached def names is unreached too.
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

#: Public defs no program reaches, each with the reason it stays.
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
    "repro.experiments.repetition:RepeatedMetric.ci95_halfwidth": _REPETITION,
    "repro.experiments.repetition:RepetitionResult": _REPETITION,
    "repro.experiments.repetition:repeat_pair": _REPETITION,
    "repro.experiments.repetition:t_critical_95": _REPETITION,
    "repro.sim.engine:Simulator.lane_perturbation": _SANITIZER,
    "repro.sim.engine:Simulator.set_lane_perturbation": _SANITIZER,
    "repro.traces.stats:popularity_ranking": (
        "the reference ranking tests/core/test_server_unit.py checks the "
        "server's placement against"
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)

#: The console entry point (``[project.scripts]`` in pyproject.toml).
_ENTRY_POINT = ("repro.cli", "main")


def _names_in(*nodes):
    """Every name by which *nodes* could reach a def."""
    names = set()
    for node in nodes:
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


def _is_public_method(statement):
    return isinstance(statement, _FUNCTIONS) and not statement.name.startswith("_")


def _own_parts(node):
    """What reaching *node* follows: a function's whole def; a class's
    decorators, bases and body except its public methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [
        *node.decorator_list,
        *node.bases,
        *node.keywords,
        *(s for s in node.body if not _is_public_method(s)),
    ]


def unreached_defs(modules, scripts):
    """``"module:name"`` of every public top-level def and
    ``"module:Class.name"`` of every public method in *modules* (dotted
    module name -> tree) that the roots do not reach; *scripts* are trees
    that run whole."""
    top = set()
    defs = {}  # name -> [(label, owning class's label or None, parts to follow)]
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            top.add(node.name)
            label = f"{module}:{node.name}"
            defs.setdefault(node.name, []).append((label, None, _own_parts(node)))
            if isinstance(node, ast.ClassDef):
                members = {}  # a property's getter and setter are one def
                for member in filter(_is_public_method, node.body):
                    members.setdefault(member.name, []).append(member)
                for name, parts in members.items():
                    defs.setdefault(name, []).append((f"{label}.{name}", label, parts))

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
                _decorator_name(d) in top for d in node.decorator_list
            ):
                # A registered def is dispatched to, not named: all of it runs.
                label = f"{module}:{node.name}"
                reached.add(label)
                if isinstance(node, ast.ClassDef):
                    reached.update(
                        f"{label}.{m.name}" for m in filter(_is_public_method, node.body)
                    )
                pending |= _names_in(node)

    # A method whose name is followed is reached, but its body runs, and
    # so names more defs, only once its class is reached too.
    waiting = {}  # class label -> bodies of its reached methods
    followed = set()
    while pending:
        name = pending.pop()
        followed.add(name)
        for label, owner, parts in defs.get(name, ()):
            if label in reached:
                continue
            reached.add(label)
            if owner is None or owner in reached:
                pending |= _names_in(*parts, *waiting.pop(label, ())) - followed
            else:
                waiting.setdefault(owner, []).extend(parts)
    return {
        label
        for name, found in defs.items()
        if not name.startswith("_")
        for label, _, _ in found
        if label not in reached
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


def test_a_method_named_only_by_an_unreached_method_is_unreached():
    modules = {
        "pkg.m": ast.parse(
            "class Box:\n"
            "    def outer(self):\n        return self.inner()\n\n"
            "    def inner(self):\n        return 0\n"
        )
    }
    assert unreached_defs(modules, [ast.parse("Box()")]) == {
        "pkg.m:Box.outer",
        "pkg.m:Box.inner",
    }
    assert unreached_defs(modules, [ast.parse("Box().outer()")]) == set()


def test_reaching_a_class_reaches_its_init_and_fields_not_its_methods():
    modules = {
        "pkg.m": ast.parse(
            "class Box:\n"
            "    size: int = default_size()\n\n"
            "    def __init__(self):\n        self.parts = make_parts()\n\n"
            "    def unused(self):\n        return helper()\n\n"
            "def default_size():\n    return 1\n\n"
            "def make_parts():\n    return []\n\n"
            "def helper():\n    return 0\n"
        )
    }
    assert unreached_defs(modules, [ast.parse("Box()")]) == {
        "pkg.m:Box.unused",
        "pkg.m:helper",
    }


def test_a_property_read_as_an_attribute_is_reached():
    modules = {
        "pkg.m": ast.parse(
            "class Box:\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    @property\n    def weight(self):\n        return 2\n"
        )
    }
    assert unreached_defs(modules, [ast.parse("print(Box().size)")]) == {
        "pkg.m:Box.weight"
    }
