"""The engine's observer bus: protocol, and a faithful observed loop.

The observed loop (taken whenever an observer defines ``fired``,
``quiescent`` or ``select``) must fire exactly the events the fast loop
fires, in the same order, so a subscriber that only watches can never
change what a run computes.
"""

import pytest

from repro.analysis.scenarios import get_scenario
from repro.cluster import lanl64
from repro.errors import SimulationError
from repro.harness.setup import build_world
from repro.mpi import runtime
from repro.sim import Engine, PhaseClock
from repro.units import KB, MB
from repro.workloads import MPIIOTest, plfs_stack, run_workload


class _Counter:
    """Watches the per-event hooks and changes nothing."""

    def __init__(self):
        self.events = []
        self.instants = []

    def fired(self, eid, event):
        self.events.append(eid)

    def quiescent(self, now):
        self.instants.append(now)


def _timeouts(env):
    def proc(env, delays):
        for d in delays:
            yield env.timeout(d)

    env.process(proc(env, [1.0, 0.0, 2.0]))
    env.process(proc(env, [1.0, 1.0]))


class TestProtocol:
    def test_fired_and_quiescent_hooks(self):
        env = Engine()
        obs = env.subscribe(_Counter())
        _timeouts(env)
        env.run()
        # Every scheduled event fires exactly once.
        assert sorted(obs.events) == list(range(1, env._eid + 1))
        assert obs.instants == [0.0, 1.0, 2.0, 3.0]

    def test_quiescent_once_on_an_empty_queue(self):
        env = Engine()
        obs = env.subscribe(_Counter())
        env.run()
        assert obs.instants == [0.0]

    def test_quiescent_before_the_horizon_jump(self):
        env = Engine()
        obs = env.subscribe(_Counter())
        env.timeout(5.0)
        env.run(until=2.0)
        assert env.now == 2.0
        assert obs.instants == [0.0]

    def test_spawn_wraps_later_processes(self):
        seen = []

        class Spawner:
            def spawn(self, gen, name):
                seen.append(name)
                return gen

        env = Engine()
        env.subscribe(Spawner())

        def proc(env):
            yield env.timeout(1.0)
            return 7

        assert env.run_process(proc(env), "p") == 7
        assert seen == ["p"]

    def test_one_tie_breaker_at_most(self):
        class Picker:
            def select(self, ready):
                return 0

        env = Engine()
        env.subscribe(Picker())
        with pytest.raises(SimulationError, match="select"):
            env.subscribe(Picker())
        assert len(env.observers) == 1

    def test_select_reorders_same_instant_events(self):
        class Last:
            def select(self, ready):
                return len(ready) - 1

        env = Engine()
        env.subscribe(Last())
        log = []
        for i in range(3):
            env.event().succeed(i)._add_callback(lambda ev: log.append(ev.value))
        env.run()
        assert log == [2, 1, 0]

    def test_layer_event_subscribers(self):
        class Listener:
            def job_drain(self, shared, name, stuck):
                pass

        env = Engine()
        assert env.subscribers("job_drain") == ()
        listener = env.subscribe(Listener())
        assert env.subscribers("job_drain") == (listener.job_drain,)
        assert env.subscribers("collective") == ()
        env.unsubscribe(listener)
        assert env.subscribers("job_drain") == ()


# -- bit-identity of the observed loop ----------------------------------------

def _smallio(observe):
    scenario = get_scenario("smallio")
    world = scenario.build()
    if observe:
        world.env.subscribe(_Counter())
    procs = scenario.drive(world)
    world.env.run()
    return world.env._eid, world.env.now.hex(), [p.value for p in procs]


def test_smallio_is_bit_identical_when_observed():
    assert _smallio(observe=True) == _smallio(observe=False)


def _fig4_point(observe, monkeypatch):
    clocks = []

    class RecordingClock(PhaseClock):
        def __init__(self):
            super().__init__()
            clocks.append(self)

    monkeypatch.setattr(runtime, "PhaseClock", RecordingClock)
    world = build_world(cluster_spec=lanl64(), aggregation="parallel")
    if observe:
        world.env.subscribe(_Counter())
    workload = MPIIOTest(16, size_per_proc=2 * MB, transfer=200 * KB,
                         layout="strided")
    run_workload(world, workload, plfs_stack(world), cold_read=False)
    per_rank = [(c.first_start.hex(), c.last_stop.hex(),
                 sorted((k, v.hex()) for k, v in c.phases.items()))
                for c in clocks]
    return world.env._eid, per_rank


def test_fig4_point_is_bit_identical_when_observed(monkeypatch):
    eid, clocks = _fig4_point(True, monkeypatch)
    assert len(clocks) == 32  # a write job and a read job of 16 ranks
    assert (eid, clocks) == _fig4_point(False, monkeypatch)
