"""The linter: every REP rule from one walk over the sources.

Every rule is module-local (see :mod:`repro.analysis.rules` for
rationale):

========  ===========================================================
REP001    wall-clock reads (``time.time``, ``datetime.now``, ...)
REP002    unseeded / process-global random sources
REP003    salted builtin ``hash()``
REP004    iteration over unordered containers (``.values()``, sets)
REP005    mutable default arguments
REP006    float reductions (``sum``/``fsum``) over unordered iterables
REP007    registry read separated from its dependent write by a yield
========  ===========================================================

:func:`lint_paths` finds the files once and lints each on its own: one
parse, the rule passes, then the noqa filter over its findings.  A file
that does not parse yields one REP000.

One suppression spelling, on the flagged line:
``# repro: noqa[REP004,REP006] -- reason``.  It names the rules it
silences (a rule-less ``# noqa`` silences nothing), and the text after
``--`` is its justification.  Every suppression is an auditable record
(:class:`Suppression`); the tier-1 suite requires each one in the
shipped tree to be justified and to silence a live finding.

The matcher is deliberately syntactic: it cannot prove an iteration
order reaches a result table, so REP004/REP006 over-approximate and the
suppression comment *is* the documentation that a site was audited.
That trade keeps the pass dependency-free, fast (one ``ast.parse`` per
file), and — most importantly — loud for the next person who writes
``for x in d.values()`` into an event schedule.

REP007 is the static face of the model checker's favourite dynamic bug
(:mod:`repro.analysis.explore`): inside a *generator* function, a value
read from a ``tracked()`` shared registry and then *written back* after
a ``yield`` — without re-reading — is a lost update waiting for the
right interleaving.  The pass recognises registries syntactically
(variables assigned from ``tracked(...)``, attributes so assigned
anywhere in the module, and results of same-module helpers whose body
calls ``tracked``) and tracks read/yield/write phases per registry as a
forward dataflow over each generator's control-flow graph
(:mod:`repro.analysis.cfg`): a yield on one arm of a branch cannot taint
the other, an arm that returns or raises never reaches the code after
the branch, and loop back edges carry reads cached across an
iteration's yields.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .cfg import build_cfg, dotted_name, local_nodes
from .rules import RULES

__all__ = ["Finding", "Suppression", "lint_source", "lint_paths",
           "discover", "iter_suppressions", "collect_suppressions"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One ``noqa`` comment: where, what it silences, and why."""

    path: str
    line: int
    rules: frozenset
    justification: str  # text after `--`; "" when there is none

    def render(self) -> str:
        why = self.justification or "(no justification)"
        return (f"{self.path}:{self.line}: "
                f"noqa[{','.join(sorted(self.rules))}] -- {why}")


# -- rule tables -------------------------------------------------------------

# Dotted call targets that read the host wall clock (REP001).
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime", "time.ctime",
    "time.asctime", "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
})

# Module-global random draws (REP002): always nondeterministic.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "expovariate", "choice", "choices", "sample", "shuffle", "betavariate",
    "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
    "lognormvariate", "getrandbits", "random_sample", "rand", "randn",
    "permutation", "standard_normal", "seed",
})

# Constructors that are fine *seeded* but nondeterministic bare (REP002).
_SEEDABLE_CTORS = frozenset({
    "random.Random", "random.SystemRandom",
    "np.random.default_rng", "numpy.random.default_rng",
    "np.random.RandomState", "numpy.random.RandomState",
})

# Reducers whose value cannot depend on operand order (for REP004 only;
# float accumulation order is REP006's business).
_ORDER_INSENSITIVE = frozenset({
    "sum", "min", "max", "any", "all", "len", "set", "frozenset",
    "sorted", "fsum", "Counter", "dict",
})

_UNORDERED_METHODS = frozenset({"values", "keys", "items"})

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[(?P<rules>[A-Za-z0-9,\s]+)\]")


def _is_unordered(node: ast.AST) -> bool:
    """Does *node* evaluate to an unordered (or order-fragile) iterable?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _UNORDERED_METHODS:
            return True
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, enabled: Set[str], path: str):
        self.enabled = enabled
        self.path = path
        self.findings: List[Finding] = []
        # Names bound by `from random import X` at module level.
        self._from_random: Set[str] = set()
        # Iteration expressions consumed by order-insensitive reducers
        # (sum/min/max/...): REP004 stands down there.
        self._blessed: Set[int] = set()

    # -- helpers ----------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.enabled:
            self.findings.append(Finding(
                rule=rule, path=self.path, line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0), message=message))

    def _bless(self, node: ast.AST) -> None:
        self._blessed.add(id(node))
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for gen in node.generators:
                self._blessed.add(id(gen.iter))

    # -- imports ----------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_RANDOM_FNS:
                    self._from_random.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        name = node.func.id if isinstance(node.func, ast.Name) else None

        if dotted in _WALLCLOCK:
            self._emit("REP001", node,
                       f"wall-clock read {dotted}() — simulated code must "
                       f"use Engine.now (host time varies per run)")

        self._check_random(node, dotted, name)

        if name == "hash":
            self._emit("REP003", node,
                       "builtin hash() is salted per process "
                       "(PYTHONHASHSEED); use zlib.crc32 or a stable key")

        if name in _ORDER_INSENSITIVE or (
                dotted is not None and dotted.split(".")[-1] == "fsum"):
            for arg in node.args:
                self._bless(arg)
            if name in {"sum"} or (
                    dotted is not None and dotted.split(".")[-1] == "fsum"):
                self._check_float_reduction(node)

        self.generic_visit(node)

    def _check_random(self, node: ast.Call, dotted: Optional[str],
                      name: Optional[str]) -> None:
        if dotted is not None:
            head, _, tail = dotted.rpartition(".")
            if head in {"random", "np.random", "numpy.random"} \
                    and tail in _GLOBAL_RANDOM_FNS:
                self._emit("REP002", node,
                           f"{dotted}() draws from process-global state; "
                           f"thread an explicitly seeded Generator instead")
                return
            if dotted in _SEEDABLE_CTORS and not node.args \
                    and not node.keywords:
                self._emit("REP002", node,
                           f"{dotted}() without a seed is nondeterministic; "
                           f"pass an explicit seed")
                return
        if name is not None and name in self._from_random:
            self._emit("REP002", node,
                       f"{name}() (from random import) draws from "
                       f"process-global state; use a seeded Generator")

    def _check_float_reduction(self, node: ast.Call) -> None:
        if not node.args:
            return
        arg = node.args[0]
        unordered = _is_unordered(arg)
        if not unordered and isinstance(
                arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            unordered = any(_is_unordered(gen.iter) for gen in arg.generators)
        if unordered:
            self._emit("REP006", node,
                       "float reduction over an unordered iterable: "
                       "accumulation order can change the last bit; reduce "
                       "over sorted(...) (or noqa an integer-only sum)")

    # -- iteration sites (REP004) -----------------------------------------
    def _check_iter(self, node: ast.AST) -> None:
        if id(node) in self._blessed:
            return
        if _is_unordered(node):
            self._emit("REP004", node,
                       "iteration over an unordered container: sort, or "
                       "annotate the loop order-insensitive with a reason")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- function definitions (REP005) ------------------------------------
    def _check_defaults(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        for default in (*args.defaults, *args.kw_defaults):
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call) and \
                    isinstance(default.func, ast.Name) and \
                    default.func.id in {"list", "dict", "set", "bytearray"}:
                mutable = True
            if mutable:
                self._emit("REP005", default,
                           "mutable default argument is shared across "
                           "calls; default to None and construct inside")
        self.generic_visit(node)

    visit_FunctionDef = _check_defaults
    visit_AsyncFunctionDef = _check_defaults


# -- REP007: registry atomicity across yields --------------------------------

_REG_READ_METHODS = frozenset({"get", "keys", "values", "items", "copy"})
_REG_WRITE_METHODS = frozenset({
    "pop", "popitem", "clear", "update", "add", "discard", "remove",
})
# setdefault reads and writes in one engine step: atomic by construction.
_REG_RW_METHODS = frozenset({"setdefault"})

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_tracked_call(node: ast.AST) -> bool:
    """Is *node* a call of ``tracked(...)`` (any dotted spelling)?"""
    if not isinstance(node, ast.Call):
        return False
    dotted = dotted_name(node.func)
    return dotted is not None and dotted.split(".")[-1] == "tracked"


@dataclass(frozen=True)
class _RegState:
    """Read-basis tracking for one registry inside one generator."""

    armed: bool = False       # a read's value may still be live
    stale: bool = False       # ... and a yield has happened since it
    read_line: int = 0


class _AtomicityPass:
    """REP007: find read -> yield -> write chains on tracked registries.

    Purely syntactic and module-local.  Registries are variables or
    attributes assigned from ``tracked(...)`` — directly, or via a
    same-module helper function whose body calls ``tracked`` (the
    ``_host_registry(home)`` idiom).  Within each *generator* function
    the pass runs a forward may-dataflow over the function's CFG
    (:func:`repro.analysis.cfg.build_cfg`): a registry read arms a
    basis, a yield marks every armed basis stale, and a write on a stale
    basis is a finding (the written value may derive from a read that
    another process has since invalidated).  A re-read re-arms fresh,
    and a write always retires the basis — so single-statement
    read-modify-writes (``r[k] -= 1``, ``setdefault``) never flag.
    Control-flow joins merge the states of their predecessors, a branch
    that ends in ``return``/``raise`` never reaches the join, and loop
    back edges carry an iteration's yields into the next.
    """

    def __init__(self, emit) -> None:
        self._emit = emit

    # -- module pre-scan ---------------------------------------------------
    def run(self, tree: ast.Module) -> None:
        factories: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, _FUNC_NODES) and any(
                    _is_tracked_call(n) for n in local_nodes(node)):
                factories.add(node.name)

        def makes_registry(value: ast.AST) -> bool:
            if _is_tracked_call(value):
                return True
            if isinstance(value, ast.Call):
                dotted = dotted_name(value.func)
                return dotted is not None \
                    and dotted.split(".")[-1] in factories
            return False

        attr_regs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and makes_registry(node.value):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Attribute):
                        attr_regs.add(tgt.attr)
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and makes_registry(node.value):
                if isinstance(node.target, ast.Attribute):
                    attr_regs.add(node.target.attr)

        for node in ast.walk(tree):
            if isinstance(node, _FUNC_NODES) and any(
                    isinstance(n, (ast.Yield, ast.YieldFrom))
                    for n in local_nodes(node)):
                self._walk_function(node, makes_registry, attr_regs)

    # -- per-function dataflow ---------------------------------------------
    def _walk_function(self, fn, makes_registry, attr_regs: Set[str]) -> None:
        local_regs: Set[str] = set()
        # (line, col, registry) -> (write node, stale read's line).  States
        # only grow towards the fixpoint, so the last round's entry wins.
        stale_writes: Dict[Tuple[int, int, str], Tuple[ast.AST, int]] = {}

        def rid_of(node: ast.AST) -> Optional[str]:
            if isinstance(node, ast.Name) and node.id in local_regs:
                return f"{node.id}"
            if isinstance(node, ast.Attribute) and node.attr in attr_regs:
                return f".{node.attr}"
            return None

        def scan(expr: ast.AST, reads: List, writes: List,
                 yields: List) -> None:
            """Registry touches and yields in one statement's expressions."""
            # Inner Name/Attribute nodes already classified as part of an
            # enclosing access (the `reg` of `del reg[k]`) must not also
            # count as bare reads — a write statement would otherwise
            # re-arm its own basis fresh and mask the staleness.
            # local_nodes yields parents before their children.
            consumed: Set[int] = set()
            for node in local_nodes(expr):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    yields.append(node)
                elif isinstance(node, ast.Subscript):
                    rid = rid_of(node.value)
                    if rid is None:
                        continue
                    consumed.add(id(node.value))
                    if isinstance(node.ctx, ast.Load):
                        reads.append((rid, node))
                    else:             # Store or Del
                        writes.append((rid, node))
                elif isinstance(node, ast.Compare):
                    for op, cmp in zip(node.ops, node.comparators):
                        if isinstance(op, (ast.In, ast.NotIn)):
                            rid = rid_of(cmp)
                            if rid is not None:
                                consumed.add(id(cmp))
                                reads.append((rid, node))
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    rid = rid_of(node.func.value)
                    if rid is None:
                        continue
                    m = node.func.attr
                    if m in _REG_READ_METHODS or m in _REG_RW_METHODS:
                        consumed.add(id(node.func.value))
                        reads.append((rid, node))
                    if m in _REG_WRITE_METHODS or m in _REG_RW_METHODS:
                        consumed.add(id(node.func.value))
                        writes.append((rid, node))
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    rid = rid_of(node)
                    if rid is not None and id(node) not in consumed \
                            and isinstance(
                                getattr(node, "ctx", None), ast.Load):
                        # Bare registry use: iteration, len(), snapshot
                        # helpers — a read, conservatively.
                        reads.append((rid, node))

        def stmt_events(stmt: ast.stmt, state: Dict[str, _RegState]) -> None:
            reads: List = []
            writes: List = []
            yields: List = []
            if isinstance(stmt, ast.AugAssign):
                rid = rid_of(stmt.target.value) \
                    if isinstance(stmt.target, ast.Subscript) else None
                if rid is not None:
                    reads.append((rid, stmt))
                    writes.append((rid, stmt))
                scan(stmt.value, reads, writes, yields)
            else:
                scan(stmt, reads, writes, yields)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is not None and makes_registry(value):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) \
                        else [stmt.target]
                    for tgt in targets:
                        if isinstance(tgt, ast.Name):
                            local_regs.add(tgt.id)
            for rid, node in reads:
                state[rid] = _RegState(True, False, node.lineno)
            if yields:
                for rid, st in sorted(state.items()):
                    if st.armed:
                        state[rid] = replace(st, stale=True)
            for rid, node in writes:
                st = state.get(rid)
                if st is not None and st.armed and st.stale:
                    stale_writes[(node.lineno, node.col_offset, rid)] = (
                        node, st.read_line)
                state[rid] = _RegState()

        def merge(a: Dict[str, _RegState],
                  b: Dict[str, _RegState]) -> Dict[str, _RegState]:
            out: Dict[str, _RegState] = {}
            for rid in sorted(set(a) | set(b)):
                sa = a.get(rid, _RegState())
                sb = b.get(rid, _RegState())
                out[rid] = _RegState(
                    sa.armed or sb.armed,
                    (sa.armed and sa.stale) or (sb.armed and sb.stale),
                    max(sa.read_line, sb.read_line))
            return out

        # Round-robin to a fixpoint; block ids follow source order, so a
        # registry's local binding is usually seen before its uses (and a
        # late one re-runs the round).
        cfg = build_cfg(fn)
        ins: Dict[int, Dict[str, _RegState]] = {cfg.entry: {}}
        while True:
            before = (dict(ins), len(local_regs))
            for blk in cfg.blocks:
                if blk.bid not in ins:
                    continue          # not reached (yet)
                state = dict(ins[blk.bid])
                for stmt in blk.stmts:
                    stmt_events(stmt, state)
                if blk.test is not None:
                    stmt_events(ast.Expr(blk.test), state)
                for dst in blk.succs:
                    ins[dst] = merge(ins.get(dst, {}), state)
            if (ins, len(local_regs)) == before:
                break

        for (_line, _col, rid), (node, read_line) in sorted(
                stale_writes.items()):
            name = rid.lstrip(".")
            self._emit("REP007", node,
                       f"write to tracked registry {name!r} uses a value "
                       f"read at line {read_line}, before a yield: the "
                       f"registry may have changed while suspended — "
                       f"re-read after resuming")


# -- entry points ------------------------------------------------------------

def iter_suppressions(source: str, path: str = "<string>",
                      ) -> List[Suppression]:
    """Every ``# repro: noqa[...]`` comment in *source*, with the
    justification after its ``--``."""
    out: List[Suppression] = []
    for lineno, comment in _comments(source):
        m = _NOQA_RE.search(comment)
        if not m:
            continue
        rules = frozenset(r.strip().upper()
                          for r in m.group("rules").split(",") if r.strip())
        _, _, just = comment[m.end():].partition("--")
        out.append(Suppression(path=path, line=lineno, rules=rules,
                               justification=" ".join(just.split())))
    return out


def _comments(source: str) -> List[Tuple[int, str]]:
    """(line, text) of every real comment token in *source*.

    Tokenizing (rather than regex-scanning lines) keeps ``noqa``
    mentions inside docstrings and string literals — this module's own
    documentation, say — from being honored as suppressions.
    """
    import io
    import tokenize

    comments: List[Tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # keep what tokenized; broken files get REP000 anyway
    return comments


def _noqa_map(source: str) -> Dict[int, Set[str]]:
    """line -> suppressed rule IDs."""
    out: Dict[int, Set[str]] = {}
    for s in iter_suppressions(source):
        out.setdefault(s.line, set()).update(s.rules)
    return out


def _filter_findings(findings: Iterable[Finding],
                     source: str) -> List[Finding]:
    """Drop findings suppressed by a ``noqa`` on their own line."""
    noqa = _noqa_map(source)
    return [f for f in findings if f.rule not in noqa.get(f.line, ())]


def discover(paths: Sequence[str]) -> List[Path]:
    """Every ``*.py`` under *paths* (files or directories), once each."""
    files: List[Path] = []
    for p in paths:
        root = Path(p)
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        elif root.suffix == ".py" and root.is_file():
            files.append(root)
    return list(dict.fromkeys(files))


def collect_suppressions(paths: Sequence[str]) -> List[Suppression]:
    """Audit: every noqa under *paths* (files or directories)."""
    out: List[Suppression] = []
    for f in discover(paths):
        out.extend(iter_suppressions(f.read_text(encoding="utf-8"),
                                     path=str(f)))
    return out


def lint_source(source: str, path: str = "<string>",
                enabled: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one source string under every rule (or *enabled* ones);
    findings in line order, noqa-filtered."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(rule="REP000", path=path, line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"syntax error: {exc.msg}")]
    rules = set(enabled) if enabled is not None else set(RULES)
    visitor = _Visitor(rules, path)
    visitor.visit(tree)
    if "REP007" in rules:
        _AtomicityPass(visitor._emit).run(tree)
    return sorted(_filter_findings(visitor.findings, source),
                  key=lambda f: (f.line, f.col, f.rule))


def lint_paths(paths: Sequence[str],
               enabled: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint every ``*.py`` under *paths*, one file at a time; findings in
    path order."""
    out: List[Finding] = []
    for f in discover(paths):
        out.extend(lint_source(f.read_text(encoding="utf-8"), str(f),
                               enabled))
    return out
