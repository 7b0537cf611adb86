"""Control flow and scopes for the flow-sensitive lint rule REP007.

:func:`build_cfg` lowers one function body to a graph of basic blocks,
over which REP007 (:mod:`repro.analysis.linter`) runs a forward dataflow
to a fixpoint, so back edges carry one iteration's yields into the
next.  :func:`local_nodes` is the one scope walker the linter uses: the
nodes of one frame, without the bodies of nested ``def``/``class``
statements.

The lowering is structured (one pass over the AST, no goto recovery):

* ``if`` — the current block gets the test as its branch condition and
  two successors that re-join afterwards;
* ``while``/``for`` — a loop-header block holding the test (or the
  iterable, for ``for``) with an entry edge into the body and an exit
  edge past it; the body's tail jumps back to the header;
* ``try`` — every block of the protected body has an exception edge to
  each handler (the exception may strike anywhere in the body);
  ``else`` runs after a body that did not raise and ``finally`` joins
  every outcome;
* ``return``/``raise``/``break``/``continue`` — edge to the function
  exit or the loop's after/header block; the fallthrough path dies.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

__all__ = ["Block", "CFG", "build_cfg", "dotted_name", "local_nodes"]

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def local_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """*node* and its descendants in one frame, in source order.

    Nested ``def`` and ``class`` statements below *node* are skipped
    whole: their bodies run in frames of their own and are analyzed as
    their own functions.  Lambdas are kept — they run within the
    enclosing function's dynamic extent for every rule's purposes.
    """
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        children = [c for c in ast.iter_child_nodes(n)
                    if not isinstance(c, _SCOPES)]
        stack.extend(reversed(children))


def dotted_name(node: ast.AST) -> Optional[str]:
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class Block:
    """One basic block: straight-line statements plus an optional branch."""

    bid: int
    stmts: List[ast.stmt] = field(default_factory=list)
    # Branch condition evaluated after `stmts` (an `if`/`while` test or a
    # `for` iterable); None for fallthrough and try/except blocks.
    test: Optional[ast.expr] = None
    succs: List[int] = field(default_factory=list)


@dataclass
class CFG:
    """A function's control-flow graph."""

    blocks: List[Block]
    entry: int


_DEAD = -1  # pseudo block id: the current flow terminated (return/raise)


class _Builder:
    def __init__(self) -> None:
        self.blocks: List[Block] = []

    def new(self) -> int:
        b = Block(bid=len(self.blocks))
        self.blocks.append(b)
        return b.bid

    def edge(self, src: int, dst: int) -> None:
        if src != _DEAD:
            self.blocks[src].succs.append(dst)

    # -- statement lowering -------------------------------------------------
    def stmts(self, body: Sequence[ast.stmt], cur: int, exit_bid: int,
              brk: Optional[int], cont: Optional[int]) -> int:
        """Lower *body* starting in block *cur*; returns the live tail
        block id, or _DEAD when every path through *body* terminated."""
        for stmt in body:
            if cur == _DEAD:
                return _DEAD  # unreachable code after return/raise
            if isinstance(stmt, ast.If):
                self.blocks[cur].test = stmt.test
                then_b = self.new()
                else_b = self.new()
                self.edge(cur, then_b)
                self.edge(cur, else_b)
                end_t = self.stmts(stmt.body, then_b, exit_bid, brk, cont)
                end_f = self.stmts(stmt.orelse, else_b, exit_bid, brk, cont)
                if end_t == _DEAD and end_f == _DEAD:
                    cur = _DEAD
                else:
                    join = self.new()
                    self.edge(end_t, join)
                    self.edge(end_f, join)
                    cur = join
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                header = self.new()
                # The iterable is evaluated at the header; the element
                # binding itself is not a branch.
                self.blocks[header].test = stmt.test \
                    if isinstance(stmt, ast.While) else stmt.iter
                self.edge(cur, header)
                body_b = self.new()
                after = self.new()
                self.edge(header, body_b)
                end_body = self.stmts(stmt.body, body_b, exit_bid, after,
                                      header)
                self.edge(end_body, header)  # back edge
                if stmt.orelse:
                    else_b = self.new()
                    self.edge(header, else_b)
                    end_e = self.stmts(stmt.orelse, else_b, exit_bid, brk,
                                       cont)
                    self.edge(end_e, after)
                else:
                    self.edge(header, after)
                cur = after
            elif isinstance(stmt, ast.Try):
                body_b = self.new()
                self.edge(cur, body_b)
                end_body = self.stmts(stmt.body, body_b, exit_bid, brk, cont)
                protected = range(body_b, len(self.blocks))
                if stmt.orelse:
                    end_body = self.stmts(stmt.orelse, self._chain(end_body),
                                          exit_bid, brk, cont)
                join = self.new()
                self.edge(end_body, join)
                # Exception edges: from every block of the protected
                # body to each handler.
                for handler in stmt.handlers:
                    h_b = self.new()
                    for src in protected:
                        self.edge(src, h_b)
                    end_h = self.stmts(handler.body, h_b, exit_bid, brk, cont)
                    self.edge(end_h, join)
                cur = join
                if stmt.finalbody:
                    cur = self.stmts(stmt.finalbody, cur, exit_bid, brk, cont)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self.blocks[cur].stmts.append(
                        _expr_stmt(item.context_expr))
                cur = self.stmts(stmt.body, cur, exit_bid, brk, cont)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                self.blocks[cur].stmts.append(stmt)
                self.edge(cur, exit_bid)
                cur = _DEAD
            elif isinstance(stmt, ast.Break):
                if brk is not None:
                    self.edge(cur, brk)
                cur = _DEAD
            elif isinstance(stmt, ast.Continue):
                if cont is not None:
                    self.edge(cur, cont)
                cur = _DEAD
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue  # nested definitions are separate CFGs
            else:
                self.blocks[cur].stmts.append(stmt)
        return cur

    def _chain(self, cur: int) -> int:
        """A fresh block after *cur* (which may be dead)."""
        if cur == _DEAD:
            return _DEAD
        nxt = self.new()
        self.edge(cur, nxt)
        return nxt


def _expr_stmt(expr: ast.expr) -> ast.stmt:
    stmt = ast.Expr(value=expr)
    stmt.lineno = getattr(expr, "lineno", 1)
    stmt.col_offset = getattr(expr, "col_offset", 0)
    return stmt


def build_cfg(fn: ast.AST) -> CFG:
    """Lower one function definition's body to a CFG."""
    builder = _Builder()
    entry = builder.new()
    exit_bid = builder.new()
    end = builder.stmts(fn.body, entry, exit_bid, None, None)  # type: ignore[attr-defined]
    builder.edge(end, exit_bid)
    return CFG(blocks=builder.blocks, entry=entry)
