"""Per-function control-flow graphs for simlint's flow-sensitive rules.

The v1 rules were single-pass AST visitors: every finding was a property
of one node in isolation.  The continuation-safety rules added for the
pooled-dispatch hot path (CONT002 in particular) need *ordering*
information -- "does statement B execute after statement A on some
path?" -- which requires a control-flow graph, not a tree walk.

:func:`build_cfg` lowers one ``ast.FunctionDef`` body into basic blocks
with successor edges.  The lowering is deliberately modest and fully
described here:

* ``if``/``elif``/``else`` branch and re-join;
* ``for``/``while`` get a loop-header block with a back edge from the
  body and an exit edge (the ``else:`` clause joins the exit path);
* ``break``/``continue`` edge to the innermost loop's exit/header;
* ``return``/``raise`` edge to the function's exit block;
* ``try`` is approximated conservatively: every statement in the body
  may transfer to each handler, and body, handlers and ``else`` all
  flow through ``finally``;
* ``with`` and ``match`` bodies are treated as straight-line /
  all-arms-join respectively.

Compound statements appear as an entry in the block *preceding* their
body (their header expressions -- an ``if`` test -- evaluate there),
except loops, which live in their own header block so the back edge
re-executes the target rebinding; suites live in dedicated blocks.

:meth:`FunctionCFG.walk_after` is the query the rules use: a forward
scan from a statement over everything reachable after it, with a
caller-supplied *kill* predicate that stops propagation along a path
(classic may-reach dataflow, one visit per block).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence


@dataclass
class Block:
    """One basic block: a statement sequence with successor edges."""

    id: int
    stmts: list[ast.stmt] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)

    def add_succ(self, block_id: int) -> None:
        if block_id not in self.succs:
            self.succs.append(block_id)


class FunctionCFG:
    """Control-flow graph of one function (or module) body."""

    def __init__(self) -> None:
        self.blocks: dict[int, Block] = {}
        self.entry: int = 0
        self.exit: int = 0
        #: statement identity -> (block id, index within block).
        self._where: dict[int, tuple[int, int]] = {}

    # -- construction helpers (used by the builder only) -------------------

    def new_block(self) -> Block:
        block = Block(id=len(self.blocks))
        self.blocks[block.id] = block
        return block

    def place(self, stmt: ast.stmt, block: Block) -> None:
        self._where[id(stmt)] = (block.id, len(block.stmts))
        block.stmts.append(stmt)

    # -- queries -----------------------------------------------------------

    def locate(self, stmt: ast.stmt) -> Optional[tuple[int, int]]:
        """(block id, index) of a placed statement; None if unknown."""
        return self._where.get(id(stmt))

    def walk_after(
        self,
        stmt: ast.stmt,
        kill: Callable[[ast.stmt], bool],
    ) -> Iterator[ast.stmt]:
        """Yield every statement that may execute after *stmt*.

        Propagation follows successor edges; a statement for which
        *kill* returns True is *not* yielded and stops the scan along
        that path (it is still re-reachable through other edges).  Each
        block is entered at most once from its start, so the scan
        terminates on cyclic graphs; the suffix of the starting block is
        scanned separately.
        """
        start = self.locate(stmt)
        if start is None:
            return
        block_id, index = start
        pending: list[int] = []
        seen: set[int] = set()

        def scan(stmts: Sequence[ast.stmt], succs: list[int]) -> Iterator[ast.stmt]:
            for s in stmts:
                if kill(s):
                    return
                yield s
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    pending.append(succ)

        first = self.blocks[block_id]
        yield from scan(first.stmts[index + 1 :], first.succs)
        while pending:
            block = self.blocks[pending.pop()]
            yield from scan(block.stmts, block.succs)


class _Builder:
    """Recursive-descent lowering of a statement suite into blocks."""

    def __init__(self) -> None:
        self.cfg = FunctionCFG()
        #: (header block id, exit block id) per enclosing loop.
        self._loops: list[tuple[int, int]] = []
        #: Handler-entry block ids of enclosing try statements: any
        #: statement inside the body may transfer control there.
        self._handlers: list[list[int]] = []

    def build(self, body: Sequence[ast.stmt]) -> FunctionCFG:
        entry = self.cfg.new_block()
        self.cfg.entry = entry.id
        exit_block = self.cfg.new_block()
        self.cfg.exit = exit_block.id
        last = self._suite(body, entry)
        if last is not None:
            last.add_succ(exit_block.id)
        return self.cfg

    # Each _suite/_stmt returns the open block control falls out of, or
    # None when the path ends (return/raise/break/continue).
    def _suite(self, body: Sequence[ast.stmt], block: Block) -> Optional[Block]:
        current: Optional[Block] = block
        for stmt in body:
            if current is None:
                # Unreachable code after a jump; give it its own island
                # block so locate() still works.
                current = self.cfg.new_block()
            current = self._stmt(stmt, current)
        return current

    def _place(self, stmt: ast.stmt, block: Block) -> None:
        self.cfg.place(stmt, block)
        for handlers in self._handlers:
            for handler_id in handlers:
                block.add_succ(handler_id)

    def _stmt(self, stmt: ast.stmt, block: Block) -> Optional[Block]:
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            # The loop statement lives in its *header* block: the
            # target rebinds there on every iteration, so a scan
            # arriving via the back edge sees the rebinding before the
            # body (CONT002's kill depends on this).
            header = self.cfg.new_block()
            block.add_succ(header.id)
            self._place(stmt, header)
            return self._loop(stmt, header)
        self._place(stmt, block)
        if isinstance(stmt, (ast.If,)):
            return self._if(stmt, block)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, block)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            body_block = self.cfg.new_block()
            block.add_succ(body_block.id)
            return self._suite(stmt.body, body_block)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, block)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            block.add_succ(self.cfg.exit)
            return None
        if isinstance(stmt, ast.Break):
            if self._loops:
                block.add_succ(self._loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            if self._loops:
                block.add_succ(self._loops[-1][0])
            return None
        return block

    def _if(self, stmt: ast.If, block: Block) -> Optional[Block]:
        join = self.cfg.new_block()
        then_block = self.cfg.new_block()
        block.add_succ(then_block.id)
        then_end = self._suite(stmt.body, then_block)
        if then_end is not None:
            then_end.add_succ(join.id)
        if stmt.orelse:
            else_block = self.cfg.new_block()
            block.add_succ(else_block.id)
            else_end = self._suite(stmt.orelse, else_block)
            if else_end is not None:
                else_end.add_succ(join.id)
        else:
            block.add_succ(join.id)
        return join

    def _loop(
        self, stmt: "ast.For | ast.AsyncFor | ast.While", header: Block
    ) -> Optional[Block]:
        exit_block = self.cfg.new_block()
        body_block = self.cfg.new_block()
        header.add_succ(body_block.id)
        header.add_succ(exit_block.id)
        self._loops.append((header.id, exit_block.id))
        body_end = self._suite(stmt.body, body_block)
        self._loops.pop()
        if body_end is not None:
            body_end.add_succ(header.id)
        if stmt.orelse:
            else_end = self._suite(stmt.orelse, exit_block)
            if else_end is None:
                return None
            return else_end
        return exit_block

    def _try(self, stmt: ast.Try, block: Block) -> Optional[Block]:
        join = self.cfg.new_block()
        handler_blocks = [self.cfg.new_block() for _ in stmt.handlers]
        self._handlers.append([b.id for b in handler_blocks])
        body_block = self.cfg.new_block()
        block.add_succ(body_block.id)
        body_end = self._suite(stmt.body, body_block)
        self._handlers.pop()
        open_ends: list[Block] = []
        if body_end is not None:
            if stmt.orelse:
                else_block = self.cfg.new_block()
                body_end.add_succ(else_block.id)
                else_end = self._suite(stmt.orelse, else_block)
                if else_end is not None:
                    open_ends.append(else_end)
            else:
                open_ends.append(body_end)
        for handler, handler_block in zip(stmt.handlers, handler_blocks, strict=True):
            handler_end = self._suite(handler.body, handler_block)
            if handler_end is not None:
                open_ends.append(handler_end)
        if stmt.finalbody:
            final_block = self.cfg.new_block()
            for end in open_ends:
                end.add_succ(final_block.id)
            # An exception path also reaches finally even when every
            # normal path jumped away.
            if not open_ends:
                block.add_succ(final_block.id)
            final_end = self._suite(stmt.finalbody, final_block)
            if final_end is not None:
                final_end.add_succ(join.id)
                return join
            return None
        for end in open_ends:
            end.add_succ(join.id)
        return join if open_ends else None

    def _match(self, stmt: ast.Match, block: Block) -> Optional[Block]:
        join = self.cfg.new_block()
        fell_through = False
        for case in stmt.cases:
            case_block = self.cfg.new_block()
            block.add_succ(case_block.id)
            case_end = self._suite(case.body, case_block)
            if case_end is not None:
                case_end.add_succ(join.id)
                fell_through = True
        # No guarantee any case matches: the statement may fall through.
        block.add_succ(join.id)
        return join if (fell_through or stmt.cases is not None) else join


def build_cfg(node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Module") -> FunctionCFG:
    """Lower *node*'s body into a :class:`FunctionCFG`."""
    return _Builder().build(node.body)
