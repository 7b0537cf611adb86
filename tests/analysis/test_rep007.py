"""REP007: registry read separated from its write by a yield.

Fixtures mirror the shapes that matter in the tree: the pre-PR-2 racy
close (flagged), the shipped close (clean), single-statement
read-modify-writes (atomic by construction), re-reads after resuming,
and the recognition paths for registries (direct ``tracked(...)``
assignment, same-module factory functions, instance attributes).
"""

import textwrap

from repro.analysis.linter import lint_source


def _lint(code, enabled=("REP007",)):
    return lint_source(textwrap.dedent(code), path="fixture.py",
                       enabled=set(enabled))


def _rules(findings):
    return [f.rule for f in findings]


def test_flags_the_last_closer_shape():
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def close(env):
            reg = tracked(env, {}, "refs")
            entry = reg["k"]
            entry[0] -= 1
            if entry[0] == 0:
                yield env.timeout(1.0)
                del reg["k"]
    """)
    assert _rules(findings) == ["REP007"]
    f = findings[0]
    assert "reg" in f.message and "yield" in f.message
    assert "line 6" in f.message          # the stale read's location


def test_shipped_close_is_clean():
    """Retire before the yield, and guard the post-yield write with a
    fresh membership re-read."""
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def close(env):
            reg = tracked(env, {}, "refs")
            entry = reg["k"]
            if entry == 0:
                del reg["k"]
            yield env.timeout(1.0)
            if "k" in reg:
                reg.pop("k")
    """)
    assert findings == []


def test_single_statement_rmw_is_atomic():
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def bump(env):
            reg = tracked(env, {}, "inflight")
            reg["d"] += 1
            yield env.timeout(1.0)
            reg.setdefault("d", 0)
            yield env.timeout(1.0)
            reg["d"] -= 1
    """)
    assert findings == []


def test_re_read_after_yield_is_clean():
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def close(env):
            reg = tracked(env, {}, "refs")
            entry = reg["k"]
            yield env.timeout(1.0)
            entry = reg["k"]
            del reg["k"]
    """)
    assert findings == []


def test_branches_do_not_leak_staleness():
    """A stale basis built in one branch must not flag the other."""
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def close(env, fast):
            reg = tracked(env, {}, "refs")
            if fast:
                del reg["k"]
            else:
                v = reg["k"]
                yield env.timeout(1.0)
            yield env.timeout(1.0)
    """)
    assert findings == []


def test_stale_write_in_loop_body_flags():
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def drain(env):
            reg = tracked(env, {}, "refs")
            n = reg["k"]
            for _ in range(n):
                yield env.timeout(1.0)
                reg["k"] = 0
    """)
    assert _rules(findings) == ["REP007"]


def test_noqa_suppresses():
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def close(env):
            reg = tracked(env, {}, "refs")
            entry = reg["k"]
            yield env.timeout(1.0)
            del reg["k"]  # repro: noqa[REP007] - sole writer by protocol
    """)
    assert findings == []


def test_factory_function_registries_are_recognized():
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def _host_registry(vol):
            return tracked(vol.env, {}, "plfs-host-refs")

        def close(env, vol):
            reg = _host_registry(vol)
            entry = reg["k"]
            yield env.timeout(1.0)
            del reg["k"]
    """)
    assert _rules(findings) == ["REP007"]


def test_attribute_registries_are_recognized():
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        class Mds:
            def __init__(self, env):
                self._inflight = tracked(env, {}, "mds-inflight")

            def serve(self, env, uid):
                n = self._inflight[uid]
                yield env.timeout(1.0)
                self._inflight[uid] = n - 1
    """)
    assert _rules(findings) == ["REP007"]


def test_non_generator_functions_are_skipped():
    """No yield, no suspension: plain functions cannot race this way."""
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def snapshot(env):
            reg = tracked(env, {}, "refs")
            entry = reg["k"]
            del reg["k"]
            return entry
    """)
    assert findings == []


def test_untracked_dicts_are_ignored():
    findings = _lint("""
        def close(env):
            reg = {}
            entry = reg["k"]
            yield env.timeout(1.0)
            del reg["k"]
    """)
    assert findings == []


def test_branch_ending_in_return_does_not_reach_the_write():
    """A read and a yield on an arm that returns never reach the write
    after the ``if``: only the fallthrough arm does, and it read nothing."""
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def close(env, cond):
            reg = tracked(env, {}, "refs")
            if cond:
                x = reg.get(1)
                yield env.timeout(1.0)
                return
            reg[1] = 2
    """)
    assert findings == []


def test_branch_ending_in_raise_does_not_reach_the_write():
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def close(env, cond):
            reg = tracked(env, {}, "refs")
            if cond:
                x = reg.get(1)
                yield env.timeout(1.0)
                raise RuntimeError(x)
            reg[1] = 2
    """)
    assert findings == []


def test_yield_nested_in_try_body_reaches_the_handler():
    """The exception may strike after a yield deep inside the protected
    body, so the handler's write can use a stale read."""
    findings = _lint("""
        from repro.analysis.sanitize import tracked

        def close(env, cond):
            reg = tracked(env, {}, "refs")
            n = reg["k"]
            try:
                if cond:
                    yield env.timeout(1.0)
                    env.check()
                n += 1
            except RuntimeError:
                reg["k"] = n
    """)
    assert _rules(findings) == ["REP007"]
    assert "line 6" in findings[0].message
