"""TrackedDict/TrackedSet mutator coverage: semantics + race visibility.

The proxies must (a) behave exactly like the plain containers for every
mutator the tree uses — ``setdefault``, ``pop``, ``update``, ``|=``,
``clear``, set membership ops — and (b) classify each mutator correctly
as read/write so check-then-act races *through* those mutators are
caught, not just plain ``[]``/``del`` ones.
"""

import pytest

from repro.analysis.sanitize import (
    TrackedDict,
    Sanitizer,
    TrackedSet,
    raw_snapshot,
    sanitizer_of,
    tracked,
)
from repro.sim import Engine


@pytest.fixture
def env():
    e = Engine()
    e.subscribe(Sanitizer(e, strict=False))
    return e


# -- TrackedDict semantics ---------------------------------------------------

def test_setdefault_missing_inserts_and_returns_default(env):
    d = tracked(env, {}, "d")
    got = d.setdefault("k", [1, 0, 0])
    got[0] += 1
    assert raw_snapshot(d) == {"k": [2, 0, 0]}


def test_setdefault_present_returns_existing(env):
    d = tracked(env, {"k": 7}, "d")
    assert d.setdefault("k", 99) == 7
    assert d.setdefault("other") is None
    assert raw_snapshot(d) == {"k": 7, "other": None}


def test_pop_variants(env):
    d = tracked(env, {"a": 1, "b": 2}, "d")
    assert d.pop("a") == 1
    assert d.pop("a", "fallback") == "fallback"
    with pytest.raises(KeyError):
        d.pop("missing")
    assert raw_snapshot(d) == {"b": 2}


def test_update_mapping_pairs_and_kwargs(env):
    d = tracked(env, {"a": 1}, "d")
    d.update({"b": 2})
    d.update([("c", 3)])
    d.update(d1=4)
    assert raw_snapshot(d) == {"a": 1, "b": 2, "c": 3, "d1": 4}


def test_ior_merges(env):
    d = tracked(env, {"a": 1}, "d")
    d |= {"b": 2, "a": 9}
    assert raw_snapshot(d) == {"a": 9, "b": 2}


def test_clear_and_views(env):
    d = tracked(env, {"b": 2, "a": 1}, "d")
    assert sorted(d.keys()) == ["a", "b"]
    assert sorted(d.values()) == [1, 2]
    assert sorted(d.items()) == [("a", 1), ("b", 2)]
    assert "a" in d and len(d) == 2 and bool(d)
    d.clear()
    assert raw_snapshot(d) == {} and not d


# -- TrackedSet semantics ----------------------------------------------------

def test_set_mutators(env):
    s = tracked(env, set(), "s")
    assert isinstance(s, TrackedSet)
    s.add(1)
    s.update({2, 3})
    s |= {4}
    assert raw_snapshot(s) == {1, 2, 3, 4}
    s.discard(4)
    s.discard(99)                      # absent: no-op
    s.remove(3)
    with pytest.raises(KeyError):
        s.remove(3)
    assert 1 in s and 3 not in s and len(s) == 2
    assert sorted(s) == [1, 2]
    s.clear()
    assert raw_snapshot(s) == set() and not s


def test_raw_snapshot_identity(env):
    plain_d, plain_s = {"k": 1}, {1}
    d = tracked(env, plain_d, "d")
    s = tracked(env, plain_s, "s")
    assert isinstance(d, TrackedDict)
    assert raw_snapshot(d) is plain_d
    assert raw_snapshot(s) is plain_s
    assert raw_snapshot(plain_d) is plain_d


# -- race visibility through the mutators ------------------------------------

def _race(env, reader_steps, writer_steps):
    """Run two processes; return the conflicts their interplay produced."""
    san = sanitizer_of(env)

    def reader(env):
        yield from reader_steps(env)

    def writer(env):
        yield env.timeout(0.5)
        writer_steps(env)
        yield env.timeout(0.1)

    env.process(reader(env), "reader")
    env.process(writer(env), "writer")
    env.run()
    return san.conflicts


def test_pop_after_stale_setdefault_read_flags(env):
    d = tracked(env, {"k": 1}, "d")

    def reader_steps(env):
        d.setdefault("k", 0)           # reads k
        yield env.timeout(1.0)
        d.pop("k", None)               # acts on the stale read

    assert [c.kind for c in _race(env, reader_steps,
                                  lambda env: d.update({"k": 2}))] \
        == ["lost-update"]


def test_update_after_stale_get_flags(env):
    d = tracked(env, {"k": 1}, "d")

    def reader_steps(env):
        d.get("k")
        yield env.timeout(1.0)
        d.update({"k": 10})

    def writer_steps(env):
        d.pop("k")
        d["k"] = 5

    assert [c.kind for c in _race(env, reader_steps, writer_steps)] \
        == ["stale-read"]


def test_set_ior_after_stale_membership_flags(env):
    s = tracked(env, set(), "s")

    def reader_steps(env):
        nonlocal s                     # |= rebinds (to the same proxy)
        _ = 1 in s
        yield env.timeout(1.0)
        s |= {1}

    assert [c.kind for c in _race(env, reader_steps,
                                  lambda env: s.add(1))] == ["lost-update"]


def test_setdefault_same_turn_is_clean(env):
    """setdefault-then-mutate with no yield between never flags."""
    d = tracked(env, {}, "d")

    def proc(env):
        d.setdefault("k", [0])[0] += 1
        yield env.timeout(1.0)

    env.process(proc(env), "a")
    env.process(proc(env), "b")
    env.run()
    assert sanitizer_of(env).conflicts == []
