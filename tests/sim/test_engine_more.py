"""Additional engine edge-case coverage."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, Engine


class TestEventEdges:
    def test_succeeded_event_with_no_waiters_is_fine(self):
        env = Engine()
        env.event().succeed("ignored")
        env.run()  # must not raise

    def test_allof_value_order_is_construction_order(self):
        env = Engine()

        def child(env, d, v):
            yield env.timeout(d)
            return v

        def parent(env):
            vals = yield AllOf(env, [
                env.process(child(env, 3, "slow")),
                env.process(child(env, 1, "fast")),
            ])
            return vals

        assert env.run_process(parent(env)) == ["slow", "fast"]

    def test_condition_rejects_cross_engine_events(self):
        env1, env2 = Engine(), Engine()
        with pytest.raises(SimulationError, match="different engines"):
            AllOf(env1, [env2.event()])

    def test_nested_processes(self):
        env = Engine()

        def leaf(env, d):
            yield env.timeout(d)
            return d

        def mid(env):
            a = yield env.process(leaf(env, 2))
            b = yield env.process(leaf(env, 3))
            return a + b

        def top(env):
            total = yield env.process(mid(env))
            return (total, env.now)

        assert env.run_process(top(env)) == (5, 5)

    def test_generator_cleanup_on_bad_yield(self):
        env = Engine()
        cleaned = []

        def proc(env):
            try:
                yield "not an event"
            finally:
                cleaned.append(True)

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()
        assert cleaned == [True]

    def test_run_until_boundary_inclusive_behavior(self):
        env = Engine()
        fired = []

        def proc(env):
            yield env.timeout(10)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=10)  # event AT the boundary runs
        assert fired == [10]

    def test_timeout_zero_value_passthrough(self):
        env = Engine()

        def proc(env):
            v = yield env.timeout(0, value={"k": 1})
            return v

        assert env.run_process(proc(env)) == {"k": 1}

    def test_interleaved_engines_are_independent(self):
        env1, env2 = Engine(), Engine()

        def proc(env, d):
            yield env.timeout(d)
            return env.now

        p1 = env1.process(proc(env1, 5))
        p2 = env2.process(proc(env2, 7))
        env1.run()
        assert p1.value == 5 and env2.now == 0
        env2.run()
        assert p2.value == 7
