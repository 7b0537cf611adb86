"""Determinism linter: one positive + one suppressed fixture per rule."""

import textwrap

from repro.analysis.linter import Finding, iter_suppressions, lint_source
from repro.analysis.rules import RULES


def _lint(code):
    return lint_source(textwrap.dedent(code), path="fixture.py")


def _rules(findings):
    return [f.rule for f in findings]


# -- REP001: wall clock ------------------------------------------------------

def test_rep001_flags_wall_clock():
    findings = _lint("""
        import time
        def f():
            return time.time()
    """)
    assert _rules(findings) == ["REP001"]
    assert "Engine.now" in findings[0].message


def test_rep001_flags_datetime_now():
    findings = _lint("""
        import datetime
        stamp = datetime.datetime.now()
    """)
    assert _rules(findings) == ["REP001"]


def test_rep001_suppressed():
    findings = _lint("""
        import time
        t0 = time.time()  # repro: noqa[REP001] -- harness wall-clock report
    """)
    assert findings == []


# -- REP002: global / unseeded random ---------------------------------------

def test_rep002_flags_module_global_random():
    findings = _lint("""
        import random
        x = random.random()
    """)
    assert _rules(findings) == ["REP002"]


def test_rep002_flags_numpy_global_and_bare_rng():
    findings = _lint("""
        import numpy as np
        a = np.random.rand(4)
        rng = np.random.default_rng()
    """)
    assert _rules(findings) == ["REP002", "REP002"]


def test_rep002_flags_from_import():
    findings = _lint("""
        from random import shuffle
        def f(xs):
            shuffle(xs)
    """)
    assert _rules(findings) == ["REP002"]


def test_rep002_allows_seeded_sources():
    findings = _lint("""
        import random
        import numpy as np
        rng = random.Random(42)
        g = np.random.default_rng(7)
        x = rng.random()
    """)
    assert findings == []


def test_rep002_suppressed():
    findings = _lint("""
        import random
        x = random.random()  # repro: noqa[REP002]
    """)
    assert findings == []


# -- REP003: salted hash() ---------------------------------------------------

def test_rep003_flags_builtin_hash():
    findings = _lint("""
        def bucket(name, n):
            return hash(name) % n
    """)
    assert _rules(findings) == ["REP003"]


def test_rep003_allows_stable_hashes():
    findings = _lint("""
        import zlib
        def bucket(name, n):
            return zlib.crc32(name.encode()) % n
    """)
    assert findings == []


def test_rep003_suppressed():
    findings = _lint("""
        h = hash(obj)  # repro: noqa[REP003] -- intra-process cache key only
    """)
    assert findings == []


# -- REP004: unordered iteration ---------------------------------------------

def test_rep004_flags_dict_values_loop():
    findings = _lint("""
        def f(d):
            for v in d.values():
                v.fire()
    """)
    assert _rules(findings) == ["REP004"]


def test_rep004_flags_set_comprehension_source():
    findings = _lint("""
        def f(s):
            return [x + 1 for x in set(s)]
    """)
    assert _rules(findings) == ["REP004"]


def test_rep004_allows_sorted_iteration():
    findings = _lint("""
        def f(d):
            for k, v in sorted(d.items()):
                v.fire()
    """)
    assert findings == []


def test_rep004_blessed_inside_order_insensitive_reducer():
    # max()/len()/any() cannot depend on operand order.
    findings = _lint("""
        def f(d):
            return max(d.values()), len(set(d)), any(v for v in d.values())
    """)
    assert findings == []


def test_rep004_suppressed():
    findings = _lint("""
        def f(d):
            for v in d.values():  # repro: noqa[REP004] -- audited: order-free
                v.fire()
    """)
    assert findings == []


# -- REP005: mutable defaults ------------------------------------------------

def test_rep005_flags_mutable_defaults():
    findings = _lint("""
        def f(xs=[], opts={}, tags=set(), buf=bytearray()):
            return xs
    """)
    assert _rules(findings) == ["REP005"] * 4


def test_rep005_allows_none_default():
    findings = _lint("""
        def f(xs=None, n=3, name=""):
            xs = [] if xs is None else xs
            return xs
    """)
    assert findings == []


def test_rep005_suppressed():
    findings = _lint("""
        def f(xs=[]):  # repro: noqa[REP005]
            return xs
    """)
    assert findings == []


# -- REP006: float reduction order -------------------------------------------

def test_rep006_flags_sum_over_dict_values():
    findings = _lint("""
        def f(d):
            return sum(d.values())
    """)
    # sum(values()) trips both the order rule path: the reduction check.
    assert "REP006" in _rules(findings)


def test_rep006_flags_fsum_over_set():
    findings = _lint("""
        import math
        def f(s):
            return math.fsum(x * 0.1 for x in set(s))
    """)
    assert "REP006" in _rules(findings)


def test_rep006_allows_sorted_reduction():
    findings = _lint("""
        def f(d):
            return sum(sorted(d.values()))
    """)
    assert findings == []


def test_rep006_suppressed():
    findings = _lint("""
        def f(d):
            return sum(d.values())  # repro: noqa[REP006] -- integer counters
    """)
    assert findings == []


# -- machinery ---------------------------------------------------------------

def test_rule_less_and_flake8_noqa_do_not_suppress():
    # One spelling suppresses: `# repro: noqa[REPnnn]`.  The bare forms
    # and the flake8 colon list leave the finding standing.
    for comment in ("# noqa", "# repro: noqa", "# noqa: REP001"):
        findings = _lint(f"""
            import time
            t = time.time()  {comment}
        """)
        assert _rules(findings) == ["REP001"], comment


def test_justification_is_the_text_after_double_dash():
    source = textwrap.dedent("""
        import time
        a = time.time()  # repro: noqa[REP001] -- harness progress report
        b = time.time()  # repro: noqa[rep001]  trailing prose is no reason
    """)
    first, second = iter_suppressions(source)
    assert first.rules == frozenset({"REP001"})
    assert first.justification == "harness progress report"
    assert second.rules == frozenset({"REP001"})
    assert second.justification == ""
    assert lint_source(source) == []


def test_noqa_for_other_rule_does_not_suppress():
    findings = _lint("""
        import time
        t = time.time()  # repro: noqa[REP004]
    """)
    assert _rules(findings) == ["REP001"]


def test_syntax_error_reports_rep000():
    findings = _lint("def broken(:\n")
    assert _rules(findings) == ["REP000"]


def test_enabled_filter_restricts_rules():
    findings = lint_source(
        "import time\nt = time.time()\nh = hash(t)\n",
        enabled={"REP003"})
    assert _rules(findings) == ["REP003"]


def test_findings_render_path_line_rule():
    findings = _lint("""
        import time
        t = time.time()
    """)
    assert len(findings) == 1
    f = findings[0]
    assert isinstance(f, Finding)
    assert f.render().startswith(f"fixture.py:{f.line}:")
    assert "REP001" in f.render()


def test_every_rule_has_metadata():
    assert set(RULES) == {f"REP00{i}" for i in range(1, 7)}
    for rule in RULES.values():
        assert rule.summary and rule.rationale
