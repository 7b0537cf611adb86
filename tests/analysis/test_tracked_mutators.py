"""TrackedDict mutator coverage: semantics + race visibility.

The proxy must (a) behave exactly like the plain dict for every mutator
the tree uses — ``setdefault``, ``clear`` — and (b) classify each
mutator correctly as read/write so check-then-act races *through* those
mutators are caught, not just plain ``[]``/``del`` ones.  Only dicts
can be tracked.
"""

import pytest

from repro.analysis.sanitize import (
    TrackedDict,
    Sanitizer,
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


def test_clear_and_views(env):
    d = tracked(env, {"b": 2, "a": 1}, "d")
    assert sorted(d) == ["a", "b"]
    assert sorted(d.values()) == [1, 2]
    assert sorted(d.items()) == [("a", 1), ("b", 2)]
    assert "a" in d and len(d) == 2 and bool(d)
    d.clear()
    assert raw_snapshot(d) == {} and not d


def test_raw_snapshot_identity(env):
    plain_d = {"k": 1}
    d = tracked(env, plain_d, "d")
    assert isinstance(d, TrackedDict)
    assert raw_snapshot(d) is plain_d
    assert raw_snapshot(plain_d) is plain_d


def test_only_dicts_are_tracked(env):
    """A set has no proxy: tracking one fails loudly, not as a dict proxy."""
    with pytest.raises(TypeError, match="needs a dict"):
        tracked(env, set(), "s")


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


def test_clear_after_stale_setdefault_read_flags(env):
    d = tracked(env, {"k": 1}, "d")

    def reader_steps(env):
        d.setdefault("k", 0)           # reads k
        yield env.timeout(1.0)
        d.clear()                      # acts on the stale read

    def writer_steps(env):
        d["k"] = 2

    assert [c.kind for c in _race(env, reader_steps, writer_steps)] \
        == ["lost-update"]


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
