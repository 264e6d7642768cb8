"""What the guards count as a program.

A program is code that runs outside the test suite: the package itself
(``src/repro``), the benchmark harness (``bench/``) and the runnable
examples (``examples/``).  ``tests/core/test_config.py`` asks which
config fields programs set, ``tests/test_reachability.py`` which defs
they reach; both scan exactly these files.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = (PACKAGE, ROOT / "bench", ROOT / "examples")


def program_files():
    """``(path, tree)`` for every Python file of a program, in path order."""
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))
