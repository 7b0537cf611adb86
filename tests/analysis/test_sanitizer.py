"""Yield-point race sanitizer: conflict semantics on synthetic processes."""

import pytest

from repro.analysis.sanitize import (
    Sanitizer, TrackedDict, sanitizer_of, tracked,
)
from repro.errors import RaceConditionError
from repro.harness.setup import build_world
from repro.sim import Engine


def make_env(strict=False):
    env = Engine()
    san = env.subscribe(Sanitizer(env, strict=strict))
    return env, san


def test_tracked_is_identity_without_sanitizer():
    env = Engine()
    d = {}
    assert tracked(env, d, "x") is d


def test_tracked_returns_proxy_with_sanitizer():
    env, san = make_env()
    d = tracked(env, {}, "x")
    assert isinstance(d, TrackedDict)
    assert san.containers == 1


def test_sanitize_enabled_reads_env_flag(monkeypatch):
    monkeypatch.delenv("REPRO_INSTRUMENT", raising=False)
    assert sanitizer_of(build_world().env) is None
    monkeypatch.setenv("REPRO_INSTRUMENT", "collectives")
    assert sanitizer_of(build_world().env) is None
    monkeypatch.setenv("REPRO_INSTRUMENT", "collectives,sanitize")
    assert isinstance(sanitizer_of(build_world().env), Sanitizer)


def test_lost_update_detected_on_check_then_act():
    """Read across a yield, then act on the stale value: the PR 2 shape."""
    env, san = make_env()
    reg = tracked(env, {}, "reg")
    reg["k"] = [2, 0, 0]

    def closer(env, reg):
        entry = reg["k"]
        entry[0] -= 1
        if entry[0] == 0:
            yield env.timeout(1.0)     # metadata ops park here
            del reg["k"]               # ... and retire a live entry
        else:
            yield env.timeout(0.1)

    def reopener(env, reg):
        yield env.timeout(0.5)
        reg["k"][0] += 1               # re-open while the closer is parked

    def drive(env, reg):
        yield env.timeout(0.0)
        env.process(closer(env, reg), "c1")
        env.process(closer(env, reg), "c2")
        env.process(reopener(env, reg), "re")

    env.process(drive(env, reg), "drive")
    env.run()
    assert [c.kind for c in san.conflicts] == ["lost-update"]
    c = san.conflicts[0]
    assert c.key == "k"
    assert c.read_epoch < c.write_epoch
    assert "lost-update" in c.render() and "reg" in c.render()


def test_fixed_closer_is_clean():
    """Retiring the entry atomically with the zero check never flags."""
    env, san = make_env()
    reg = tracked(env, {}, "reg")
    reg["k"] = [2, 0, 0]

    def closer(env, reg):
        entry = reg["k"]
        entry[0] -= 1
        if entry[0] == 0:
            del reg["k"]               # before any yield
        yield env.timeout(1.0)

    def reopener(env, reg):
        yield env.timeout(0.5)
        reg.setdefault("k", [0, 0, 0])[0] += 1

    env.process(closer(env, reg), "c1")
    env.process(closer(env, reg), "c2")
    env.process(reopener(env, reg), "re")
    env.run()
    assert san.conflicts == []


def test_stale_read_kind_when_entry_deleted_in_between():
    env, san = make_env()
    d = tracked(env, {}, "ns")
    d["f"] = 1

    def holder(env, d):
        v = d["f"]
        yield env.timeout(1.0)
        d["f"] = v + 10                # entry was deleted + recreated

    def churner(env, d):
        yield env.timeout(0.5)
        del d["f"]
        d["f"] = 99

    env.process(holder(env, d), "holder")
    env.process(churner(env, d), "churner")
    env.run()
    assert [c.kind for c in san.conflicts] == ["stale-read"]


def test_blind_overwrite_never_flags():
    """A write with no read since the process's own last write is
    last-writer-wins by construction (the OSD stream-tracking shape)."""
    env, san = make_env()
    d = tracked(env, {}, "last-client")

    def rank(env, d, me, delay):
        prev = d.get(5380, me)         # read + write in the same turn
        d[5380] = me
        yield env.timeout(delay)
        d[5380] = me                   # later blind overwrite
        yield env.timeout(0.1)

    env.process(rank(env, d, "r1", 1.0), "r1")
    env.process(rank(env, d, "r5", 0.5), "r5")
    env.run()
    assert san.conflicts == []


def test_same_turn_read_modify_write_is_clean():
    env, san = make_env()
    d = tracked(env, {}, "inflight")
    d["x"] = 0

    def bump(env, d):
        d["x"] += 1
        yield env.timeout(0.3)
        d["x"] -= 1

    env.process(bump(env, d), "b1")
    env.process(bump(env, d), "b2")
    env.run()
    assert san.conflicts == []
    assert d["x"] == 0


def test_strict_mode_raises_at_the_write():
    env, san = make_env(strict=True)
    d = tracked(env, {}, "ns")
    d["k"] = 0

    def stale(env, d):
        v = d["k"]
        yield env.timeout(1.0)
        d["k"] = v + 1

    def other(env, d):
        yield env.timeout(0.5)
        d["k"] = 7

    env.process(stale(env, d), "stale")
    env.process(other(env, d), "other")
    with pytest.raises(RaceConditionError, match="ns"):
        env.run()
    assert len(san.conflicts) == 1


def test_wrapper_preserves_return_values():
    env, san = make_env()

    def inner(env):
        yield env.timeout(1.0)
        return 42

    assert env.run_process(inner(env), "ok") == 42


def test_wrapper_propagates_exceptions():
    env, san = make_env()

    def boom(env):
        yield env.timeout(0.5)
        raise ValueError("boom")

    env.process(boom(env), "bad")
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_summary_counts():
    env, san = make_env()
    tracked(env, {}, "a")
    tracked(env, {}, "b")

    def noop(env):
        yield env.timeout(0.1)

    env.process(noop(env), "n")
    env.run()
    s = san.summary()
    assert "2 tracked containers" in s
    assert "1 instrumented processes" in s
    assert "0 conflict(s)" in s
