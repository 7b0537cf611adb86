"""Control flow and scopes for every flow-sensitive lint rule.

:func:`build_cfg` lowers one function body to a graph of basic blocks;
:func:`iter_paths` enumerates bounded acyclic paths through it.  Two
analyses read the graph:

* the collective analyzer (:mod:`repro.analysis.collectives`) abstracts
  each path to its sequence of collective operations and compares the
  sequences — rank congruence is a *path* property, so branches become
  decision points whose taintedness (rank-dependent or not) decides
  whether two diverging paths may be taken by *different ranks* of the
  same job;
* REP007 (:mod:`repro.analysis.linter`) runs a forward dataflow over
  the blocks to a fixpoint, so back edges carry one iteration's yields
  into the next.

:func:`local_nodes` is the one scope walker both use: the nodes of one
frame, without the bodies of nested ``def``/``class`` statements.

The lowering is structured (one pass over the AST, no goto recovery):

* ``if`` — the current block gets the test as its branch condition and
  two labeled successors (``t``/``f``) that re-join afterwards;
* ``while``/``for`` — a loop-header block holding the test (or the
  iterable, for ``for``) with an entry edge into the body and an exit
  edge past it; the body's tail jumps back to the header.  Headers are
  marked so path enumeration bounds the unrolling (a body runs 0 or 1
  times per path) and so statements carry their enclosing-loop stack,
  which is what REP104's rank-dependent-trip-count check reads;
* ``try`` — every block of the protected body has an exception edge to
  each handler (the exception may strike anywhere in the body); the
  edges are *untainted* decisions, since the collective analyzer treats
  exceptions as rank-uniform to avoid drowning real divergence in
  hypothetical ones; ``else`` runs after a body that did not raise and
  ``finally`` joins every outcome;
* ``return``/``raise``/``break``/``continue`` — edge to the function
  exit or the loop's after/header block; the fallthrough path dies.

Paths longer than ``max_paths`` are cut off and reported via the
``overflow`` flag — the analyzer then treats the function as opaque
rather than pretending partial enumeration proved congruence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["Block", "CFG", "LoopContext", "Path", "build_cfg", "dotted_name",
           "iter_paths", "local_nodes"]

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


# One enclosing loop: (header expression, header line).  For a `for`
# loop the expression is the iterable; for `while`, the test.
LoopContext = Tuple[ast.expr, int]


@dataclass
class Block:
    """One basic block: straight-line statements plus an optional branch."""

    bid: int
    stmts: List[ast.stmt] = field(default_factory=list)
    # Enclosing loop headers, outermost first (shared by every statement
    # in the block — blocks never straddle a loop boundary).
    loops: Tuple[LoopContext, ...] = ()
    # Branch condition evaluated after `stmts`; None for fallthrough
    # blocks and for decision blocks with no condition (try/except).
    test: Optional[ast.expr] = None
    test_line: int = 0
    is_loop_header: bool = False
    # (successor bid, label): "n" fallthrough, "t"/"f" branch arms,
    # "e<i>" exception edge into handler i.
    succs: List[Tuple[int, str]] = field(default_factory=list)


@dataclass
class CFG:
    """A function's control-flow graph."""

    blocks: List[Block]
    entry: int
    exit: int

    def block(self, bid: int) -> Block:
        return self.blocks[bid]


# One decision taken along a path: (line, label, test expression or
# None).  The analyzer classifies the decision's taint from the test.
Decision = Tuple[int, str, Optional[ast.expr]]


@dataclass
class Path:
    """One bounded acyclic walk entry->exit."""

    # (statement, enclosing loop stack) in execution order.
    steps: List[Tuple[ast.stmt, Tuple[LoopContext, ...]]]
    decisions: List[Decision]


_DEAD = -1  # pseudo block id: the current flow terminated (return/raise)


class _Builder:
    def __init__(self) -> None:
        self.blocks: List[Block] = []

    def new(self, loops: Tuple[LoopContext, ...]) -> int:
        b = Block(bid=len(self.blocks), loops=loops)
        self.blocks.append(b)
        return b.bid

    def edge(self, src: int, dst: int, label: str = "n") -> None:
        if src != _DEAD:
            self.blocks[src].succs.append((dst, label))

    # -- statement lowering -------------------------------------------------
    def stmts(self, body: Sequence[ast.stmt], cur: int,
              loops: Tuple[LoopContext, ...],
              exit_bid: int, brk: Optional[int], cont: Optional[int]) -> int:
        """Lower *body* starting in block *cur*; returns the live tail
        block id, or _DEAD when every path through *body* terminated."""
        for stmt in body:
            if cur == _DEAD:
                return _DEAD  # unreachable code after return/raise
            if isinstance(stmt, ast.If):
                blk = self.blocks[cur]
                blk.test = stmt.test
                blk.test_line = stmt.lineno
                then_b = self.new(loops)
                else_b = self.new(loops)
                self.edge(cur, then_b, "t")
                self.edge(cur, else_b, "f")
                end_t = self.stmts(stmt.body, then_b, loops,
                                   exit_bid, brk, cont)
                end_f = self.stmts(stmt.orelse, else_b, loops,
                                   exit_bid, brk, cont)
                if end_t == _DEAD and end_f == _DEAD:
                    cur = _DEAD
                else:
                    join = self.new(loops)
                    self.edge(end_t, join)
                    self.edge(end_f, join)
                    cur = join
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                header = self.new(loops)
                hb = self.blocks[header]
                hb.is_loop_header = True
                if isinstance(stmt, ast.While):
                    hb.test = stmt.test
                else:
                    # The iterable is evaluated at the header; the
                    # element binding itself is not a branch.
                    hb.test = stmt.iter
                hb.test_line = stmt.lineno
                self.edge(cur, header)
                inner = loops + ((hb.test, stmt.lineno),)
                body_b = self.new(inner)
                after = self.new(loops)
                # Loop edges get their own labels ("lt"/"lf", not
                # "t"/"f") so the analyzer can tell trip-count decisions
                # (REP104's concern) from branch decisions (REP101's).
                self.edge(header, body_b, "lt")
                end_body = self.stmts(stmt.body, body_b, inner,
                                      exit_bid, after, header)
                self.edge(end_body, header)  # back edge
                if stmt.orelse:
                    else_b = self.new(loops)
                    self.edge(header, else_b, "lf")
                    end_e = self.stmts(stmt.orelse, else_b, loops,
                                       exit_bid, brk, cont)
                    self.edge(end_e, after)
                else:
                    self.edge(header, after, "lf")
                cur = after
            elif isinstance(stmt, ast.Try):
                body_b = self.new(loops)
                self.edge(cur, body_b)
                end_body = self.stmts(stmt.body, body_b, loops,
                                      exit_bid, brk, cont)
                protected = range(body_b, len(self.blocks))
                if stmt.orelse:
                    end_body = self.stmts(stmt.orelse,
                                          self._chain(end_body, loops),
                                          loops, exit_bid, brk, cont)
                join = self.new(loops)
                self.edge(end_body, join)
                # Exception edges: from every block of the protected
                # body to each handler.
                for i, handler in enumerate(stmt.handlers):
                    h_b = self.new(loops)
                    for src in protected:
                        self.edge(src, h_b, f"e{i}")
                    end_h = self.stmts(handler.body, h_b, loops,
                                       exit_bid, brk, cont)
                    self.edge(end_h, join)
                cur = join
                if stmt.finalbody:
                    cur = self.stmts(stmt.finalbody, cur, loops,
                                     exit_bid, brk, cont)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self.blocks[cur].stmts.append(
                        _expr_stmt(item.context_expr))
                cur = self.stmts(stmt.body, cur, loops, exit_bid, brk, cont)
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

    def _chain(self, cur: int, loops: Tuple[LoopContext, ...]) -> int:
        """A fresh block after *cur* (which may be dead)."""
        if cur == _DEAD:
            return _DEAD
        nxt = self.new(loops)
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
    entry = builder.new(())
    exit_bid = builder.new(())
    end = builder.stmts(fn.body, entry, (), exit_bid, None, None)  # type: ignore[attr-defined]
    builder.edge(end, exit_bid)
    return CFG(blocks=builder.blocks, entry=entry, exit=exit_bid)


def iter_paths(cfg: CFG, max_paths: int = 64,
               ) -> Tuple[List[Path], bool]:
    """Enumerate bounded paths entry->exit; returns (paths, overflow).

    Loop bodies are unrolled at most once per path (the loop-taken
    decision is recorded like a branch, so trip-count divergence still
    surfaces as a decision difference).  When more than *max_paths*
    paths exist, enumeration stops and ``overflow`` is True.
    """
    paths: List[Path] = []
    overflow = False

    # Iterative DFS; each frame: (bid, steps, decisions, header visits).
    stack: List[Tuple[int, List, List, dict]] = [
        (cfg.entry, [], [], {})]
    while stack:
        bid, steps, decisions, visits = stack.pop()
        while True:
            block = cfg.block(bid)
            steps = steps + [(s, block.loops) for s in block.stmts]
            succs = block.succs
            if not succs:
                if len(paths) < max_paths:
                    paths.append(Path(steps=steps, decisions=decisions))
                else:
                    overflow = True
                break
            if block.is_loop_header:
                seen = visits.get(bid, 0)
                visits = dict(visits)
                visits[bid] = seen + 1
                if seen >= 1:
                    # Second arrival: the single unrolled iteration is
                    # done, only the exit edge remains.
                    succs = [(d, lbl) for d, lbl in succs if lbl != "lt"]
                    if not succs:  # infinite loop (while True: no break)
                        if len(paths) < max_paths:
                            paths.append(Path(steps=steps,
                                              decisions=decisions))
                        else:
                            overflow = True
                        break
            if len(succs) == 1:
                dst, lbl = succs[0]
                if lbl != "n":
                    decisions = decisions + [
                        (block.test_line, lbl, block.test)]
                bid = dst
                continue
            # Decision point: fork.  Push the alternatives, continue
            # with the first in-line.
            if len(stack) + len(paths) > max_paths:
                overflow = True
                break
            for dst, lbl in succs[1:]:
                stack.append((dst, steps,
                              decisions + [(block.test_line, lbl,
                                            block.test)],
                              visits))
            dst, lbl = succs[0]
            decisions = decisions + [(block.test_line, lbl, block.test)]
            bid = dst
    return paths, overflow

