"""Engine.run owns the host GC policy and leaves no trace of it.

During a run the built world is frozen and the collection thresholds are
raised; afterwards the thresholds, the enabled state and the freeze count
are what they were before, however the run ends.
"""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


def gc_state():
    return gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()


@pytest.fixture(autouse=True)
def restore_gc():
    before = gc_state()
    yield
    gc.set_threshold(*before[0])
    (gc.enable if before[1] else gc.disable)()
    if not before[2]:
        gc.unfreeze()


def sampler(env, seen, delays=(1.0, 2.0)):
    """A process that records the GC state it runs under."""
    for d in delays:
        seen.append(gc_state())
        yield env.timeout(d)


class _Watcher:
    """An observer with a per-event hook, so runs take the observed loop."""

    def fired(self, eid, event):
        pass


class TestPolicyDuringRun:
    def test_world_frozen_and_thresholds_raised(self):
        env = Engine()
        seen = []
        env.process(sampler(env, seen))
        before = gc.get_threshold()
        env.run()
        thresholds, enabled, frozen = seen[0]
        assert frozen > 0
        assert thresholds[0] >= max(before[0], 50_000)
        assert all(now >= old for now, old in zip(thresholds, before))
        assert enabled == gc.isenabled()

    def test_caller_frozen_objects_stay_frozen(self):
        gc.freeze()
        before = gc_state()
        env = Engine()
        env.process(sampler(env, []))
        env.run()
        assert gc_state() == before

    def test_zero_threshold_keeps_automatic_collection_off(self):
        gc.set_threshold(0)
        env = Engine()
        seen = []
        env.process(sampler(env, seen))
        env.run()
        assert seen[0][0][0] == 0
        assert gc.get_threshold()[0] == 0


class TestStateRestored:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_after_normal_return(self, enabled):
        (gc.enable if enabled else gc.disable)()
        gc.set_threshold(123, 4, 5)
        before = gc_state()
        env = Engine()
        seen = []
        env.process(sampler(env, seen))
        env.run()
        assert env.now == 3.0 and len(seen) == 2
        assert seen[0][1] == enabled
        assert gc_state() == before

    def test_after_run_until(self):
        before = gc_state()
        env = Engine()
        seen = []
        env.process(sampler(env, seen))
        env.run(until=1.5)
        assert env.now == 1.5 and len(seen) == 2
        assert gc_state() == before
        env.run()  # and again when the same world resumes
        assert env.now == 3.0
        assert gc_state() == before

    def test_under_an_observer(self):
        before = gc_state()
        env = Engine()
        env.subscribe(_Watcher())
        seen = []
        env.process(sampler(env, seen))
        env.run()
        assert seen[0][2] > 0  # the observed loop runs under the policy too
        assert gc_state() == before

    def test_when_a_process_raises(self):
        before = gc_state()
        env = Engine()

        def crash(env):
            yield env.timeout(1.0)
            raise ValueError("model bug")

        env.process(crash(env))
        with pytest.raises(ValueError):
            env.run()
        assert gc_state() == before

    def test_when_run_rejects_its_horizon(self):
        env = Engine()
        env.run_process(sampler(env, []))
        before = gc_state()
        with pytest.raises(SimulationError):
            env.run(until=0.5)
        assert gc_state() == before
