"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import AllOf, Engine


def test_timeout_advances_clock():
    env = Engine()

    def proc(env):
        yield env.timeout(2.5)
        return env.now

    assert env.run_process(proc(env)) == 2.5
    assert env.now == 2.5


def test_timeout_carries_value():
    env = Engine()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    assert env.run_process(proc(env)) == "payload"


def test_zero_timeout_runs_in_order():
    env = Engine()
    order = []

    def proc(env, tag):
        yield env.timeout(0)
        order.append(tag)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert order == ["a", "b"]


def test_negative_timeout_rejected():
    env = Engine()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Engine()
    seen = []

    def proc(env, delay):
        yield env.timeout(delay)
        seen.append(delay)

    for d in (5.0, 1.0, 3.0, 2.0, 4.0):
        env.process(proc(env, d))
    env.run()
    assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_process_waits_on_process():
    env = Engine()

    def child(env):
        yield env.timeout(3)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return (result, env.now)

    assert env.run_process(parent(env)) == (42, 3)


def test_waiting_on_finished_process_resumes_inline():
    env = Engine()

    def child(env):
        yield env.timeout(1)
        return "done"

    def parent(env):
        c = env.process(child(env))
        yield env.timeout(10)
        assert c.processed
        got = yield c  # already processed: must not deadlock
        return (got, env.now)

    assert env.run_process(parent(env)) == ("done", 10)


def test_process_exception_propagates_to_waiter():
    env = Engine()

    def child(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return str(exc)
        return "no exception"

    assert env.run_process(parent(env)) == "boom"


def test_unhandled_process_exception_raises_from_run():
    env = Engine()

    def child(env):
        yield env.timeout(1)
        raise ValueError("unwatched")

    env.process(child(env))
    with pytest.raises(ValueError, match="unwatched"):
        env.run()


def test_yielding_non_event_is_an_error():
    env = Engine()

    def proc(env):
        yield 7

    env.process(proc(env))
    with pytest.raises(SimulationError, match="must yield Event"):
        env.run()


def test_process_requires_generator():
    env = Engine()
    with pytest.raises(SimulationError, match="generator"):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_run_until_stops_clock():
    env = Engine()

    def proc(env):
        yield env.timeout(100)

    p = env.process(proc(env))
    env.run(until=10)
    assert env.now == 10
    assert p.alive
    env.run()
    assert not p.alive
    assert env.now == 100


def test_run_until_past_rejected():
    env = Engine()
    env.run_process(iter_timeout(env, 5))
    with pytest.raises(SimulationError):
        env.run(until=1)


def iter_timeout(env, d):
    yield env.timeout(d)


def test_manual_event_succeed():
    env = Engine()
    ev = env.event()

    def waiter(env):
        got = yield ev
        return (got, env.now)

    def firer(env):
        yield env.timeout(4)
        ev.succeed("sig")

    p = env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert p.value == ("sig", 4)


def test_event_double_trigger_rejected():
    env = Engine()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)

    ev2 = env.event()

    def waiter(env):
        try:
            yield ev2
        except RuntimeError:
            return "caught"

    p = env.process(waiter(env))

    def firer(env):
        yield env.timeout(1)
        ev2.fail(RuntimeError("x"))
        with pytest.raises(SimulationError):
            ev2.succeed()

    env.process(firer(env))
    env.run()
    assert p.value == "caught"


def test_event_value_before_trigger_raises():
    env = Engine()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception():
    env = Engine()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_all_of_waits_for_all():
    env = Engine()

    def child(env, d):
        yield env.timeout(d)
        return d

    def parent(env):
        vals = yield AllOf(env, [env.process(child(env, d)) for d in (3, 1, 2)])
        return (vals, env.now)

    vals, t = env.run_process(parent(env))
    assert vals == [3, 1, 2]  # value order matches construction order
    assert t == 3


def test_all_of_empty_triggers_immediately():
    env = Engine()

    def parent(env):
        vals = yield AllOf(env, [])
        return (vals, env.now)

    assert env.run_process(parent(env)) == ([], 0)


def test_all_of_with_already_processed_children():
    env = Engine()

    def child(env):
        yield env.timeout(1)
        return "c"

    def parent(env):
        c1 = env.process(child(env))
        yield env.timeout(5)
        c2 = env.process(child(env))
        vals = yield AllOf(env, [c1, c2])  # c1 processed, c2 pending
        return (vals, env.now)

    assert env.run_process(parent(env)) == (["c", "c"], 6)


def test_all_of_fails_fast():
    env = Engine()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("bad child")

    def slow(env):
        yield env.timeout(100)

    def parent(env):
        try:
            yield AllOf(env, [env.process(bad(env)), env.process(slow(env))])
        except RuntimeError as exc:
            return (str(exc), env.now)

    assert env.run_process(parent(env)) == ("bad child", 1)


def test_run_process_detects_deadlock():
    env = Engine()

    def stuck(env):
        yield env.event()  # never triggered

    with pytest.raises(DeadlockError):
        env.run_process(stuck(env))


def test_many_processes_scale():
    """10k processes with interleaved timeouts complete in order."""
    env = Engine()
    done = []

    def proc(env, i):
        yield env.timeout(i % 17)
        done.append(i)

    for i in range(10_000):
        env.process(proc(env, i))
    env.run()
    assert len(done) == 10_000
    assert sorted(done) == list(range(10_000))


def test_deep_dependency_chain_does_not_overflow_stack():
    """5k processes each waiting on the next must not recurse."""
    env = Engine()

    def link(env, nxt):
        if nxt is None:
            yield env.timeout(1)
            return 0
        depth = yield nxt
        return depth + 1

    prev = None
    for _ in range(5000):
        prev = env.process(link(env, prev))
    assert env.run_process(link(env, prev)) == 5000
