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

A registry read gone stale across a ``yield`` has no static rule: the
sanitizer (:mod:`repro.analysis.sanitize`) and the model checker
(:mod:`repro.analysis.explore`) catch it at run time, and
``tests/analysis/test_tracked_sites.py`` requires every ``tracked()``
registry to be written by a run that CI makes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
