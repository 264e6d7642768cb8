"""Unit tests for the per-function CFG under the flow-sensitive rules.

The lowering is approximate by design; these tests pin the properties
CONT002 actually relies on: forward reachability through branches and
back edges, and kill-aware termination of the scan.
"""

import ast

from repro.devtools.cfg import build_cfg


def _fn(source):
    tree = ast.parse(source)
    fn = tree.body[0]
    return fn, build_cfg(fn)


def _stmt_at(fn, line):
    for node in ast.walk(fn):
        if isinstance(node, ast.stmt) and getattr(node, "lineno", None) == line:
            return node
    raise AssertionError(f"no statement at line {line}")


def _happens_after(cfg, first, later):
    """Whether *later* can execute after *first* on some path."""
    return any(stmt is later for stmt in cfg.walk_after(first, kill=lambda s: False))


class TestHappensAfter:
    def test_straight_line_order(self):
        fn, cfg = _fn("def f():\n    a = 1\n    b = 2\n    c = 3\n")
        assert _happens_after(cfg, _stmt_at(fn, 2), _stmt_at(fn, 4))
        assert not _happens_after(cfg, _stmt_at(fn, 4), _stmt_at(fn, 2))

    def test_branches_rejoin(self):
        src = (
            "def f(x):\n"
            "    a = 1\n"
            "    if x:\n"
            "        b = 2\n"
            "    else:\n"
            "        c = 3\n"
            "    d = 4\n"
        )
        fn, cfg = _fn(src)
        assert _happens_after(cfg, _stmt_at(fn, 4), _stmt_at(fn, 7))
        assert _happens_after(cfg, _stmt_at(fn, 6), _stmt_at(fn, 7))
        # The two arms never execute on the same path.
        assert not _happens_after(cfg, _stmt_at(fn, 4), _stmt_at(fn, 6))

    def test_loop_back_edge_reaches_earlier_body_statements(self):
        src = (
            "def f(xs):\n"
            "    for x in xs:\n"
            "        a = 1\n"
            "        b = 2\n"
        )
        fn, cfg = _fn(src)
        # Next iteration: b happens-after a AND a happens-after b.
        assert _happens_after(cfg, _stmt_at(fn, 3), _stmt_at(fn, 4))
        assert _happens_after(cfg, _stmt_at(fn, 4), _stmt_at(fn, 3))

    def test_return_ends_the_path(self):
        src = "def f(x):\n    if x:\n        return 1\n    y = 2\n"
        fn, cfg = _fn(src)
        assert not _happens_after(cfg, _stmt_at(fn, 3), _stmt_at(fn, 4))


class TestKillAwareWalk:
    def test_kill_stops_the_scan_on_that_path(self):
        src = (
            "def f(xs):\n"
            "    start = 0\n"
            "    kill = 1\n"
            "    after = 2\n"
        )
        fn, cfg = _fn(src)
        seen = [
            s.lineno
            for s in cfg.walk_after(_stmt_at(fn, 2), kill=lambda s: s.lineno == 3)
        ]
        assert seen == []

    def test_loop_header_rebind_is_seen_on_the_back_edge(self):
        # The `for` statement lives in its header block, so a scan
        # arriving via the back edge hits the target rebinding before
        # re-entering the body -- the property CONT002's kill uses.
        src = (
            "def f(xs, pool):\n"
            "    for x in xs:\n"
            "        use = x\n"
            "        pool.append(x)\n"
        )
        fn, cfg = _fn(src)
        lines = set()
        for stmt in cfg.walk_after(
            _stmt_at(fn, 4), kill=lambda s: isinstance(s, ast.For)
        ):
            lines.add(stmt.lineno)
        assert 3 not in lines  # body not re-entered past the For kill

    def test_walk_terminates_on_cycles(self):
        src = (
            "def f(xs):\n"
            "    while True:\n"
            "        a = 1\n"
            "        b = 2\n"
        )
        fn, cfg = _fn(src)
        seen = list(cfg.walk_after(_stmt_at(fn, 3), kill=lambda s: False))
        assert len(seen) < 20  # one visit per block, no infinite loop
