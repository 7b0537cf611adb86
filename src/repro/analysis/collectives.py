"""Interprocedural collective-matching analysis (REP101..REP104).

The paper's read-path mechanisms (Index Flatten's gather-at-close /
broadcast-at-open, Parallel Index Read's two-level leader collectives)
assume SPMD congruence: *every rank of a communicator issues the same
collective sequence with the same roots*.  One rank-divergent
``bcast``/``gather`` leaves the others parked on the interconnect — or
worse in this simulator, where sends complete eagerly, a skipped
collective silently desynchronizes the per-communicator tag counter and
later collectives cross-match each other's messages.  This pass proves
congruence statically, over every user of :class:`repro.mpi.comm.Comm`:

1. each function is lowered to a CFG (:mod:`repro.analysis.cfg`) and
   its bounded paths abstracted to sequences of collective events;
2. branch conditions, roots, loop iterables, and p2p peers are
   classified by a taint lattice seeded from ``comm.rank``/``self.rank``
   and leader-predicate idioms (results of ``bcast``/``allgather``/
   ``allreduce`` are *uniform* and launder taint; ``gather``/``reduce``/
   ``scatter`` results stay rank-dependent);
3. functions are summarized bottom-up over the call graph
   (:mod:`repro.analysis.callgraph`), so collectives inside helpers are
   matched interprocedurally at every call site.

Rules::

    REP101  collective under a rank-dependent branch whose other arm's
            collective sequence is not congruent (divergence/hang)
    REP102  rank-dependent root= argument of a collective
    REP103  unmatched or cyclically-waiting send/recv pairing
    REP104  collective inside a loop with a rank-dependent trip count

Sub-communicators from ``comm.split(color)`` with a rank-dependent
color are *partitioned*: collectives on them are congruent per color
group by construction, so a rank-dependent branch in which only one arm
uses the partitioned comm (the two-level leader idiom) is tolerated;
both arms using it differently is still flagged.

Every static finding can be confirmed or dismissed at runtime with the
collective-trace validator (``--instrument collectives``,
:mod:`repro.mpi.trace`), which records per-rank per-communicator
sequences and asserts congruence at drain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, FuncInfo, build_callgraph
from .cfg import build_cfg, dotted_name, iter_paths, local_nodes
from .linter import Finding

__all__ = ["COLLECTIVE_OPS", "analyze_modules"]

COLLECTIVE_OPS = frozenset({
    "gather", "bcast", "barrier", "allgather", "reduce", "allreduce",
    "scatter", "alltoall", "split",
})
_P2P_OPS = frozenset({"send", "recv", "isend", "irecv"})
# Collective results that are identical on every rank: assignment from
# them LAUNDERS taint.  gather/reduce/scatter results are rank-dependent
# (root-only or per-rank) and are NOT here.
_UNIFORM_RESULTS = frozenset({"bcast", "allgather", "allreduce", "alltoall"})

_MAX_PATHS = 64          # CFG paths per function
_MAX_VARIANTS = 24       # exported sequence variants per summary


# -- events ------------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """One abstract communication operation on a path."""

    kind: str          # "coll" | "p2p"
    comm: str          # abstract communicator identity
    op: str            # gather/bcast/... or send/recv/isend/irecv
    root: str          # abstract root (coll) or peer (p2p):
    #                    "c:<k>" constant, "u" uniform, "t" tainted,
    #                    "p:<param>" caller-decided, "s:<+d>" rank shift
    tag: str           # p2p tag class; "" for collectives
    line: int
    partitioned: bool  # comm is a rank-dependent split
    blocking: bool = True


# A decision key: (line, label, tainted).  Callee-variant choices are
# recorded as untainted synthetic decisions so caller-level congruence
# comparison never re-reports a divergence the callee already owns.
DecisionKey = Tuple[int, str, bool]


@dataclass
class Variant:
    """One distinct abstract behavior of a function."""

    events: Tuple[Event, ...]
    decisions: FrozenSet[DecisionKey]


@dataclass
class Summary:
    """Bottom-up function summary used at call sites."""

    key: str
    variants: List[Variant] = field(default_factory=list)
    overflow: bool = False
    # Params whose value flows into a collective root: (param, op, line).
    root_params: List[Tuple[str, str, int]] = field(default_factory=list)

    @property
    def has_events(self) -> bool:
        return any(v.events for v in self.variants)


# -- small AST helpers -------------------------------------------------------

def _calls(node: ast.AST) -> List[ast.Call]:
    """*node*'s calls in one frame, ordered by (line, column)."""
    return sorted((n for n in local_nodes(node) if isinstance(n, ast.Call)),
                  key=lambda c: (c.lineno, c.col_offset))


# -- taint -------------------------------------------------------------------

class _Taint:
    """Flow-insensitive rank-taint for one function.

    Seeds: any ``<x>.rank`` attribute, names bound ``rank``/``vrank``,
    and parameters named ``rank``.  Propagates through assignments,
    tuple unpacking, loop targets, and calls (an unresolved call with a
    tainted argument is tainted); launders through uniform collectives
    (``bcast``/``allgather``/``allreduce``/``alltoall`` results are the
    same on every rank).
    """

    def __init__(self, fn: ast.AST):
        self.tainted: Set[str] = set()
        for p in getattr(fn, "args", None).args if hasattr(fn, "args") else []:
            if p.arg in ("rank", "vrank"):
                self.tainted.add(p.arg)
        self._fixpoint(fn)

    def _fixpoint(self, fn: ast.AST) -> None:
        assigns = []
        for node in local_nodes(fn):
            if isinstance(node, ast.Assign):
                assigns.append((node.targets, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assigns.append(([node.target], node.value))
            elif isinstance(node, ast.AugAssign):
                assigns.append(([node.target], node.value))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                assigns.append(([node.target], node.iter))
            elif isinstance(node, ast.NamedExpr):
                assigns.append(([node.target], node.value))
            elif isinstance(node, ast.withitem) and \
                    node.optional_vars is not None:
                assigns.append(([node.optional_vars], node.context_expr))
        for _ in range(len(assigns) + 1):
            changed = False
            for targets, value in assigns:
                changed |= self._bind(targets, value)
            if not changed:
                return

    def _bind(self, targets: Sequence[ast.AST], value: ast.expr) -> bool:
        changed = False
        for tgt in targets:
            if isinstance(tgt, ast.Tuple) and isinstance(value, ast.Tuple) \
                    and len(tgt.elts) == len(value.elts):
                for t, v in zip(tgt.elts, value.elts):
                    changed |= self._bind([t], v)
                continue
            names = [n.id for n in ast.walk(tgt)
                     if isinstance(n, ast.Name)]
            if self.is_tainted(value):
                for name in names:
                    if name not in self.tainted:
                        self.tainted.add(name)
                        changed = True
        return changed

    def is_tainted(self, expr: Optional[ast.expr]) -> bool:
        if expr is None:
            return False
        if self._laundered(expr):
            # The whole expression is a uniform-collective result: the
            # same value lands on every rank no matter how rank-
            # dependent the arguments were.
            return False
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and node.attr == "rank":
                return True
            if isinstance(node, ast.Name) and node.id in self.tainted:
                return True
        return False

    @staticmethod
    def _laundered(expr: ast.expr) -> bool:
        """Is the *whole* expression a uniform-collective result?

        ``yield from comm.bcast(tainted)`` is uniform regardless of its
        arguments; anything less than the full expression being such a
        call keeps the taint.
        """
        probe = expr
        while isinstance(probe, (ast.Await, ast.YieldFrom)):
            probe = probe.value
        if isinstance(probe, ast.Call) and \
                isinstance(probe.func, ast.Attribute) and \
                probe.func.attr in _UNIFORM_RESULTS:
            return True
        return False


# -- abstractions ------------------------------------------------------------

def _root_class(expr: Optional[ast.expr], taint: _Taint,
                params: Sequence[str]) -> str:
    if expr is None:
        return "c:0"
    if isinstance(expr, ast.Constant):
        return f"c:{expr.value!r}"
    if isinstance(expr, ast.Name) and expr.id in params \
            and expr.id not in taint.tainted:
        return f"p:{expr.id}"
    if taint.is_tainted(expr):
        return "t"
    return "u"


def _peer_class(expr: Optional[ast.expr], taint: _Taint) -> str:
    """Abstract p2p peer: constant, rank±d shift, tainted, or unknown."""
    if expr is None:
        return "?"
    probe = expr
    # (self.rank ± d) % size — the ring idiom.
    if isinstance(probe, ast.BinOp) and isinstance(probe.op, ast.Mod):
        probe = probe.left
    if isinstance(probe, ast.BinOp) and \
            isinstance(probe.op, (ast.Add, ast.Sub)):
        left, right = probe.left, probe.right
        is_rank = (isinstance(left, ast.Attribute) and left.attr == "rank") \
            or (isinstance(left, ast.Name) and left.id == "rank")
        if is_rank and isinstance(right, ast.Constant) \
                and isinstance(right.value, int):
            d = right.value if isinstance(probe.op, ast.Add) else -right.value
            return f"s:{d:+d}"
    if isinstance(probe, ast.Constant):
        return f"c:{probe.value!r}"
    if taint.is_tainted(expr):
        return "t"
    return "u"


def _tag_class(expr: Optional[ast.expr], tag_env: Dict[str, str]) -> str:
    """Abstract tag: first constant of a tuple, a constant, or wildcard."""
    if expr is None:
        return "c:0"
    if isinstance(expr, ast.Name) and expr.id in tag_env:
        return tag_env[expr.id]
    if isinstance(expr, ast.Constant):
        return f"c:{expr.value!r}"
    if isinstance(expr, ast.Tuple) and expr.elts and \
            isinstance(expr.elts[0], ast.Constant):
        return f"c:{expr.elts[0].value!r}"
    return "?"


def _arg(call: ast.Call, pos: int, kw: str) -> Optional[ast.expr]:
    for k in call.keywords:
        if k.arg == kw:
            return k.value
    if len(call.args) > pos:
        return call.args[pos]
    return None


# Positional index of the root/peer/tag argument per operation.
_ROOT_POS = {"gather": 2, "bcast": 2, "reduce": 3, "scatter": 2}
_PEER_POS = {"send": 0, "recv": 0, "isend": 0, "irecv": 0}
_TAG_POS = {"send": 3, "recv": 1, "isend": 3, "irecv": 1}


# -- per-function analysis ---------------------------------------------------

class _FunctionPass:
    """Summarize one function and collect its local findings."""

    def __init__(self, info: FuncInfo, graph: CallGraph,
                 summaries: Dict[str, Summary],
                 emit) -> None:
        self.info = info
        self.graph = graph
        self.summaries = summaries
        self.emit = emit                      # emit(rule, line, col, msg)
        self.taint = _Taint(info.node)
        self.comm_vars: Set[str] = set()      # names known to be comms
        self.partitioned: Set[str] = set()    # rank-dependent splits
        self.tag_env: Dict[str, str] = {}     # local tag name -> class
        self.root_params: List[Tuple[str, str, int]] = []
        self._rep104_lines: Set[int] = set()
        self._rep102_lines: Set[int] = set()
        self._prescan()

    # -- pre-scan: comm variables, partitioned splits, tag bindings ---------
    def _prescan(self) -> None:
        node = self.info.node
        for p in self.info.params:
            if p == "comm" or p.endswith("_comm"):
                self.comm_vars.add(p)
        for n in local_nodes(node):
            if isinstance(n, ast.Assign) and len(n.targets) == 1:
                tgt, val = n.targets[0], n.value
                names = None
                if isinstance(tgt, ast.Name):
                    names = tgt.id
                probe = val
                while isinstance(probe, (ast.Await, ast.YieldFrom)):
                    probe = probe.value
                if names and isinstance(probe, ast.Call) and \
                        isinstance(probe.func, ast.Attribute):
                    attr = probe.func.attr
                    if attr == "split":
                        self.comm_vars.add(names)
                        color = _arg(probe, 0, "color")
                        if self.taint.is_tainted(color):
                            self.partitioned.add(names)
                    elif attr == "view":
                        self.comm_vars.add(names)
                if names and not isinstance(probe, ast.Call):
                    cls = _tag_class(probe, {})
                    if names == "tag" or cls.startswith("c:"):
                        if isinstance(probe, (ast.Tuple, ast.Constant)):
                            self.tag_env[names] = _tag_class(probe, {})
                # `tag = ("_cb_w", comm._next_tag()[1])`: tuple with a
                # call inside — classify by the first constant element.
                if names and isinstance(probe, ast.Tuple) and probe.elts \
                        and isinstance(probe.elts[0], ast.Constant):
                    self.tag_env[names] = f"c:{probe.elts[0].value!r}"

    def _is_comm(self, dotted: str) -> bool:
        head = dotted.split(".")[0]
        last = dotted.split(".")[-1]
        return dotted in self.comm_vars or head in self.comm_vars \
            or last == "comm" or last.endswith("_comm")

    # -- main entry ---------------------------------------------------------
    def run(self) -> Summary:
        cfg = build_cfg(self.info.node)
        paths, overflow = iter_paths(cfg, max_paths=_MAX_PATHS)
        summary = Summary(key=self.info.key)
        variants: List[Variant] = []
        for path in paths:
            expanded = self._expand_path(path)
            if expanded is None:
                overflow = True
                continue
            variants.extend(expanded)
            if len(variants) > _MAX_PATHS * 2:
                overflow = True
                break
        if not overflow and not any(v.events for v in variants):
            # Every path enumerated and none communicates: exactly
            # collective-free, however many paths it has.
            variants = variants[:1]
        summary.overflow = overflow or self.info.in_cycle
        summary.root_params = self.root_params
        # Dedupe variants by (events, decisions) for compactness.
        seen: Set[Tuple] = set()
        for v in variants:
            sig = (v.events, v.decisions)
            if sig not in seen:
                seen.add(sig)
                summary.variants.append(v)
        if len(summary.variants) > _MAX_VARIANTS:
            summary.overflow = True
            del summary.variants[_MAX_VARIANTS:]

        if not summary.overflow:
            self._check_congruence(summary.variants)
        self._check_cycles(summary.variants)
        return summary

    # -- path expansion (event emission + callee inlining) ------------------
    def _expand_path(self, path) -> Optional[List[Variant]]:
        # Loop-entry decisions ("lt"/"lf") are recorded untainted even
        # when the trip count is rank-dependent: REP104 owns trip-count
        # divergence, and letting it double as REP101 evidence would
        # report every collective-in-tainted-loop twice.  Exception edges
        # ("e<i>") are untainted too: exceptions are treated as
        # rank-uniform, and a block's test decides only its branch edges.
        decisions: FrozenSet[DecisionKey] = frozenset(
            (line, label,
             label[0] not in "le" and self.taint.is_tainted(test))
            for line, label, test in path.decisions)
        partials: List[List[Event]] = [[]]
        extra_decisions: List[Set[DecisionKey]] = [set()]
        for stmt, loops in path.steps:
            loop_tainted = any(self.taint.is_tainted(expr)
                               for expr, _line in loops)
            for call in _calls(stmt):
                ev = self._event_of(call)
                if ev is not None:
                    if loop_tainted and ev.kind == "coll":
                        self._rep104(ev.line, ev.op)
                    if ev.kind == "coll" and ev.root == "t":
                        self._rep102(ev.line, ev.op)
                    for p in partials:
                        p.append(ev)
                    continue
                callee = self.graph.resolve(call, self.info)
                if callee is None:
                    continue
                callee_summary = self.summaries.get(callee.key)
                if callee_summary is None or not callee_summary.has_events:
                    if callee_summary is not None:
                        self._check_root_args(call, callee,
                                              callee_summary)
                    continue
                if callee_summary.overflow:
                    # Opaque callee with collectives: treat as one
                    # unknown collective on an unknown comm so REP104
                    # still sees it, but congruence stays comparable.
                    ev = Event(kind="coll", comm="?", op="?", root="u",
                               tag="", line=stmt.lineno,
                               partitioned=False)
                    if loop_tainted:
                        self._rep104(stmt.lineno, "?")
                    for p in partials:
                        p.append(ev)
                    continue
                self._check_root_args(call, callee, callee_summary)
                if loop_tainted and any(
                        e.kind == "coll"
                        for v in callee_summary.variants for e in v.events):
                    self._rep104(stmt.lineno, callee.name)
                partials, extra_decisions = self._splice(
                    partials, extra_decisions, call, callee,
                    callee_summary, stmt.lineno)
                if partials is None:
                    return None
        return [Variant(events=tuple(p),
                        decisions=decisions | frozenset(extra))
                for p, extra in zip(partials, extra_decisions)]

    def _splice(self, partials, extra_decisions, call: ast.Call,
                callee: FuncInfo, summary: Summary, line: int):
        """Cross partial sequences with the callee's variants."""
        mapping = self._comm_mapping(call, callee)
        inlined: List[Tuple[Tuple[Event, ...], DecisionKey]] = []
        for vi, variant in enumerate(summary.variants):
            events = tuple(self._rebind(e, mapping, callee, line)
                           for e in variant.events)
            events = tuple(e for e in events if e is not None)
            inlined.append((events, (line, f"call[{callee.name}]#{vi}",
                                     False)))
        # Dedupe callee variants that rebind to identical sequences
        # (e.g. every arm collective-free after a None-comm drop).
        uniq: Dict[Tuple[Event, ...], DecisionKey] = {}
        for events, dk in inlined:
            uniq.setdefault(events, dk)
        new_partials: List[List[Event]] = []
        new_extra: List[Set[DecisionKey]] = []
        for p, extra in zip(partials, extra_decisions):
            for events, dk in uniq.items():  # repro: noqa[REP004] -- insertion-ordered over the deterministic variant order
                new_partials.append(p + list(events))
                new_extra.append(extra | ({dk} if len(uniq) > 1 else set()))
                if len(new_partials) > _MAX_PATHS:
                    return None, None
        return new_partials, new_extra

    def _comm_mapping(self, call: ast.Call, callee: FuncInfo,
                      ) -> Dict[str, Optional[str]]:
        """Map callee formal comm names to caller comm ids (None drops)."""
        mapping: Dict[str, Optional[str]] = {}
        params = list(callee.params)
        for i, arg in enumerate(call.args):
            if i >= len(params):
                break
            self._map_one(mapping, params[i], arg)
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                self._map_one(mapping, kw.arg, kw.value)
        return mapping

    def _map_one(self, mapping: Dict[str, Optional[str]], formal: str,
                 actual: ast.expr) -> None:
        if isinstance(actual, ast.Constant) and actual.value is None:
            mapping[formal] = None
            return
        dotted = dotted_name(actual)
        if dotted is not None:
            mapping[formal] = dotted

    def _rebind(self, event: Event, mapping: Dict[str, Optional[str]],
                callee: FuncInfo, call_line: int) -> Optional[Event]:
        comm = event.comm
        head = comm.split(".")[0]
        if head in mapping:
            actual = mapping[head]
            if actual is None:
                return None  # comm=None at this call site: no collective
            comm = actual + comm[len(head):]
        elif head in callee.params:
            comm = f"{callee.name}.{comm}"
        else:
            comm = f"{callee.name}::{comm}"
        # Findings about an inlined event must point at the *call site*
        # in the caller's file, not at the callee's line number.
        return Event(kind=event.kind, comm=comm, op=event.op,
                     root=event.root, tag=event.tag, line=call_line,
                     partitioned=event.partitioned,
                     blocking=event.blocking)

    def _check_root_args(self, call: ast.Call, callee: FuncInfo,
                         summary: Summary) -> None:
        """REP102 interprocedurally: tainted actual into a root param."""
        params = list(callee.params)
        for formal, op, line in summary.root_params:
            actual: Optional[ast.expr] = None
            for kw in call.keywords:
                if kw.arg == formal:
                    actual = kw.value
            if actual is None and formal in params:
                i = params.index(formal)
                if i < len(call.args):
                    actual = call.args[i]
            if actual is None:
                continue
            if self.taint.is_tainted(actual):
                self._rep102(call.lineno, op)
            elif isinstance(actual, ast.Name) \
                    and actual.id in self.info.params:
                self.root_params.append((actual.id, op, call.lineno))

    # -- event emission ------------------------------------------------------
    def _event_of(self, call: ast.Call) -> Optional[Event]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        op = func.attr
        if op not in COLLECTIVE_OPS and op not in _P2P_OPS:
            return None
        dotted = dotted_name(func.value)
        if dotted is None or not self._is_comm(dotted):
            return None
        if op in COLLECTIVE_OPS:
            root_expr = _arg(call, _ROOT_POS[op], "root") \
                if op in _ROOT_POS else None
            root = _root_class(root_expr, self.taint, self.info.params) \
                if op in _ROOT_POS else "u"
            if root.startswith("p:"):
                self.root_params.append((root[2:], op, call.lineno))
            return Event(kind="coll", comm=dotted, op=op, root=root, tag="",
                         line=call.lineno,
                         partitioned=dotted in self.partitioned)
        peer = _peer_class(_arg(call, _PEER_POS[op],
                                "dst" if "send" in op else "src"),
                           self.taint)
        tag = _tag_class(_arg(call, _TAG_POS[op], "tag"), self.tag_env)
        return Event(kind="p2p", comm=dotted, op=op, root=peer, tag=tag,
                     line=call.lineno,
                     partitioned=dotted in self.partitioned,
                     blocking=op == "recv")

    # -- REP101: cross-path congruence ---------------------------------------
    def _check_congruence(self, variants: List[Variant]) -> None:
        reported: Set[int] = set()
        for i in range(len(variants)):
            for j in range(i + 1, len(variants)):
                a, b = variants[i], variants[j]
                bad = _incongruence(a, b)
                if bad is None:
                    continue
                # Two paths are taken by *different ranks of one run*
                # only if every decision line they both reach and
                # disagree on is rank-dependent: an untainted predicate
                # evaluates identically on every rank, so disagreeing
                # there means the paths belong to different runs (or
                # different callee variants), not different ranks.
                tainted_divergence = _rank_divergence(a, b)
                if tainted_divergence is None:
                    continue
                line, ev = bad
                if ev.line in reported:
                    continue
                reported.add(ev.line)
                branch_line = tainted_divergence
                self.emit(
                    "REP101", ev.line, 0,
                    f"collective {ev.op}() on {ev.comm!r} is reachable "
                    f"only on some ranks: the branch at line "
                    f"{branch_line} is rank-dependent and its other arm "
                    f"issues a non-congruent collective sequence — "
                    f"ranks diverge (hang or cross-matched tags); hoist "
                    f"the collective out of the branch or make both "
                    f"arms issue the same sequence")

    def _check_cycles(self, variants: List[Variant]) -> None:
        """REP103 cyclic waits: blocking recv from rank±d before the
        symmetric send that would satisfy it."""
        reported: Set[int] = set()
        for v in variants:
            events = [e for e in v.events if e.kind == "p2p"]
            for idx, ev in enumerate(events):
                if ev.op != "recv" or not ev.root.startswith("s:"):
                    continue
                shift = int(ev.root[2:])
                inverse = f"s:{-shift:+d}"
                matches = [
                    (k, s) for k, s in enumerate(events)
                    if "send" in s.op and s.root == inverse
                    and _tags_compatible(s.tag, ev.tag)]
                if matches and all(k > idx for k, _s in matches) \
                        and ev.line not in reported:
                    reported.add(ev.line)
                    self.emit(
                        "REP103", ev.line, 0,
                        f"blocking recv from rank{shift:+d} precedes the "
                        f"send to rank{-shift:+d} that satisfies it: "
                        f"every rank waits on its neighbor before "
                        f"sending — a cyclic wait; send first (or use "
                        f"isend) to break the ring")

    def collect_p2p(self) -> List[Event]:
        """Every p2p event in this function, by flat AST walk.

        The tree-wide REP103 send/recv registry must see *all* p2p
        sites, including those on paths dropped by enumeration overflow
        — matching needs no path context, so it reads the raw AST.
        """
        events = (self._event_of(call) for call in _calls(self.info.node))
        return [ev for ev in events if ev is not None and ev.kind == "p2p"]

    # -- finding helpers -----------------------------------------------------
    def _rep104(self, line: int, what: str) -> None:
        if line in self._rep104_lines:
            return
        self._rep104_lines.add(line)
        self.emit(
            "REP104", line, 0,
            f"collective ({what}) inside a loop whose trip count is "
            f"rank-dependent: ranks iterating different counts issue "
            f"different collective sequences and desynchronize; hoist "
            f"the collective, or make the bound uniform (and annotate "
            f"with a runtime-validated trace)")

    def _rep102(self, line: int, op: str) -> None:
        if line in self._rep102_lines:
            return
        self._rep102_lines.add(line)
        self.emit(
            "REP102", line, 0,
            f"root argument of {op}() is rank-dependent: ranks would "
            f"address different roots in the same collective; roots "
            f"must be provably uniform across ranks (a constant, or a "
            f"value broadcast/allreduced beforehand)")


def _tags_compatible(a: str, b: str) -> bool:
    return a == "?" or b == "?" or a == b


def _rank_divergence(a: Variant, b: Variant) -> Optional[int]:
    """Line of a rank-dependent decision that can split ranks of one run
    across variants *a* and *b*, or None when the pair is not
    co-reachable (they disagree at some rank-uniform decision)."""
    by_line_a: Dict[int, Set[Tuple[str, bool]]] = {}
    by_line_b: Dict[int, Set[Tuple[str, bool]]] = {}
    for line, label, tainted in a.decisions:
        by_line_a.setdefault(line, set()).add((label, tainted))
    for line, label, tainted in b.decisions:
        by_line_b.setdefault(line, set()).add((label, tainted))
    evidence: Optional[int] = None
    for line in sorted(set(by_line_a) & set(by_line_b)):
        da, db = by_line_a[line], by_line_b[line]
        if da == db:
            continue
        if any(tainted for _lbl, tainted in da | db):
            if evidence is None:
                evidence = line
        else:
            return None  # uniform disagreement: not the same run
    return evidence


def _incongruence(a: Variant, b: Variant,
                  ) -> Optional[Tuple[int, Event]]:
    """First point where two variants' collective sequences diverge.

    Compared per communicator.  A partitioned comm used by only one of
    the two variants is the leader idiom (members of the other color
    never touch it) and is tolerated; everything else must match op-
    and root-wise, in order.
    """
    per_comm_a = _coll_by_comm(a)
    per_comm_b = _coll_by_comm(b)
    worst: Optional[Tuple[int, Event]] = None
    for comm in sorted(set(per_comm_a) | set(per_comm_b)):
        seq_a = per_comm_a.get(comm, [])
        seq_b = per_comm_b.get(comm, [])
        if (not seq_a or not seq_b) and (
                (seq_a and seq_a[0].partitioned)
                or (seq_b and seq_b[0].partitioned)):
            continue  # leader idiom on a rank-partitioned split
        n = min(len(seq_a), len(seq_b))
        sites_a = {(e.op, e.line) for e in seq_a}
        sites_b = {(e.op, e.line) for e in seq_b}
        diverge: Optional[Event] = None
        for k in range(n):
            if (seq_a[k].op, seq_a[k].root) != (seq_b[k].op, seq_b[k].root):
                # Anchor the finding at the collective unique to one arm
                # (the one *inside* the rank-dependent region), falling
                # back to the later site when both are one-sided.
                only_a = (seq_a[k].op, seq_a[k].line) not in sites_b
                only_b = (seq_b[k].op, seq_b[k].line) not in sites_a
                if only_a and not only_b:
                    diverge = seq_a[k]
                elif only_b and not only_a:
                    diverge = seq_b[k]
                else:
                    diverge = seq_a[k] if seq_a[k].line >= seq_b[k].line \
                        else seq_b[k]
                break
        if diverge is None and len(seq_a) != len(seq_b):
            longer = seq_a if len(seq_a) > len(seq_b) else seq_b
            diverge = longer[n]
        if diverge is not None:
            cand = (diverge.line, diverge)
            if worst is None or cand[0] < worst[0]:
                worst = cand
    return worst


def _coll_by_comm(v: Variant) -> Dict[str, List[Event]]:
    out: Dict[str, List[Event]] = {}
    for e in v.events:
        if e.kind == "coll":
            out.setdefault(e.comm, []).append(e)
    return out


# -- tree-wide REP103 matching ----------------------------------------------

def _match_p2p(all_events: List[Tuple[str, Event]], emit) -> None:
    """Unmatched pairing: a recv whose tag class no send ever uses (and
    vice versa) can never complete — flag it at its site."""
    send_tags: Set[str] = set()
    recv_tags: Set[str] = set()
    for _path, e in all_events:
        if "send" in e.op:
            send_tags.add(e.tag)
        else:
            recv_tags.add(e.tag)
    for path, e in all_events:
        if "recv" in e.op:
            if e.tag != "?" and not any(
                    _tags_compatible(e.tag, t) for t in send_tags):
                emit(path, "REP103", e.line, 0,
                     f"{e.op}() waits for tag class {e.tag} but no send "
                     f"anywhere in the analyzed tree uses that tag: the "
                     f"receive can never complete")
        elif e.tag != "?" and not any(
                _tags_compatible(e.tag, t) for t in recv_tags):
            emit(path, "REP103", e.line, 0,
                 f"{e.op}() posts tag class {e.tag} but no recv anywhere "
                 f"in the analyzed tree matches it: the message is never "
                 f"consumed (payload leak / tag-space pollution)")


# -- entry point -------------------------------------------------------------

def analyze_modules(modules: Dict[str, ast.Module]) -> List[Finding]:
    """REP101..REP104 over parsed *modules* (path -> AST), unfiltered:
    the linter (:mod:`repro.analysis.linter`) applies noqa and --select."""
    graph = build_callgraph(modules)
    summaries: Dict[str, Summary] = {}
    out: List[Finding] = []
    p2p_events: List[Tuple[str, Event]] = []

    def emit(path: str, rule: str, line: int, col: int, msg: str) -> None:
        out.append(Finding(rule=rule, path=path, line=line, col=col,
                           message=msg))

    for info in graph.topo_order():
        pass_ = _FunctionPass(info, graph, summaries,
                              partial(emit, info.path))
        summaries[info.key] = pass_.run()
        seen_lines: Set[int] = set()
        for e in pass_.collect_p2p():
            if e.line not in seen_lines:
                seen_lines.add(e.line)
                p2p_events.append((info.path, e))

    _match_p2p(p2p_events, emit)
    return out
