"""Call-graph construction over the analyzed source tree.

The collective analyzer summarizes functions bottom-up: a helper's
collective sequence must be known before any caller inlines it (the
parallel index read's leader/member helpers are the motivating case).
This module owns the graph: one :class:`FuncInfo` per function or method
definition across every analyzed file, syntactic call-edge resolution,
and a callee-first topological order with cycle detection.

Resolution is deliberately name-based and conservative:

* ``f(...)`` — the function named ``f`` in the caller's own module,
  else the *unique* module-level function of that name tree-wide;
* ``self.m(...)`` — the method ``m`` of the caller's own class, else
  the unique method of that name tree-wide;
* ``x.m(...)`` — the unique definition named ``m`` tree-wide.

Anything ambiguous (two classes both define ``open``) or external
(stdlib, numpy) resolves to nothing and is treated as collective-free —
an unsoundness the runtime collective-trace validator exists to catch.
Functions on a call cycle are marked ``in_cycle`` and summarized as
opaque rather than iterated to fixpoint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cfg import local_nodes

__all__ = ["CallGraph", "FuncInfo", "build_callgraph"]


@dataclass
class FuncInfo:
    """One function or method definition in the analyzed set."""

    key: str                 # "<path>::<qualname>"
    path: str                # source file
    name: str                # bare name
    qualname: str            # Class.method or function name
    cls: Optional[str]       # enclosing class, if a method
    node: ast.AST            # the FunctionDef
    params: Tuple[str, ...]  # positional+kw parameter names, in order
    in_cycle: bool = False
    callees: List[str] = field(default_factory=list)  # resolved keys


def _params_of(node: ast.AST) -> Tuple[str, ...]:
    a = node.args  # type: ignore[attr-defined]
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    return tuple(names)


@dataclass
class CallGraph:
    """Functions, name indexes, and resolved call edges."""

    functions: Dict[str, FuncInfo]
    by_module: Dict[Tuple[str, str], List[FuncInfo]]  # (path, name) -> defs
    by_name: Dict[str, List[FuncInfo]]                # bare name -> defs

    def resolve(self, call: ast.Call, caller: FuncInfo) -> Optional[FuncInfo]:
        """The FuncInfo a call statically resolves to, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            local = [f for f in self.by_module.get((caller.path, func.id), [])
                     if f.cls is None or f.cls == caller.cls]
            if len(local) == 1:
                return local[0]
            globl = [f for f in self.by_name.get(func.id, []) if f.cls is None]
            return globl[0] if len(globl) == 1 else None
        if isinstance(func, ast.Attribute):
            name = func.attr
            if isinstance(func.value, ast.Name) and func.value.id == "self" \
                    and caller.cls is not None:
                own = [f for f in self.by_module.get((caller.path, name), [])
                       if f.cls == caller.cls]
                if len(own) == 1:
                    return own[0]
            candidates = self.by_name.get(name, [])
            return candidates[0] if len(candidates) == 1 else None
        return None

    def topo_order(self) -> List[FuncInfo]:
        """Callee-first order; members of call cycles get ``in_cycle``."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[str, int] = {k: WHITE for k in self.functions}
        order: List[FuncInfo] = []

        for root in sorted(self.functions):
            if color[root] != WHITE:
                continue
            # Iterative DFS with an explicit phase marker per frame.
            stack: List[Tuple[str, int]] = [(root, 0)]
            while stack:
                key, phase = stack.pop()
                info = self.functions[key]
                if phase == 0:
                    if color[key] == BLACK:
                        continue
                    if color[key] == GREY:
                        continue
                    color[key] = GREY
                    stack.append((key, 1))
                    for callee in info.callees:
                        c = color.get(callee, BLACK)
                        if c == WHITE:
                            stack.append((callee, 0))
                        elif c == GREY:
                            # Back edge: everything currently grey on
                            # this chain may sit on the cycle; marking
                            # both endpoints is enough to make their
                            # summaries opaque.
                            info.in_cycle = True
                            self.functions[callee].in_cycle = True
                else:
                    if color[key] != BLACK:
                        color[key] = BLACK
                        order.append(info)
        return order


def build_callgraph(modules: Dict[str, ast.Module]) -> CallGraph:
    """Collect every function definition in *modules* and resolve edges."""
    functions: Dict[str, FuncInfo] = {}
    by_module: Dict[Tuple[str, str], List[FuncInfo]] = {}
    by_name: Dict[str, List[FuncInfo]] = {}

    for path in sorted(modules):
        tree = modules[path]
        for cls, node in _iter_defs(tree):
            qualname = f"{cls}.{node.name}" if cls else node.name
            # Nested defs (rank functions named `fn` in two workloads,
            # say) share qualnames; the line makes every key unique.
            info = FuncInfo(
                key=f"{path}::{qualname}:{node.lineno}", path=path,
                name=node.name,
                qualname=qualname, cls=cls, node=node,
                params=_params_of(node))
            functions[info.key] = info
            by_module.setdefault((path, node.name), []).append(info)
            by_name.setdefault(node.name, []).append(info)

    graph = CallGraph(functions=functions, by_module=by_module,
                      by_name=by_name)
    for info in functions.values():  # repro: noqa[REP004] -- edges are
        # per-function state; population order cannot change them.
        seen: set = set()
        # Nested defs are graph nodes of their own.
        for node in local_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            callee = graph.resolve(node, info)
            if callee is not None and callee.key not in seen:
                seen.add(callee.key)
                info.callees.append(callee.key)
    return graph


def _iter_defs(tree: ast.Module):
    """(enclosing class or None, def node) for every function definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
            yield from _nested(node, None)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item
                    yield from _nested(item, node.name)


def _nested(fn: ast.AST, cls: Optional[str]):
    """Nested defs keep their enclosing class for self-resolution."""
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield cls, node
