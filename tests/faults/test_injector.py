"""FaultInjector: plans compile onto the world's degraded-mode hooks."""

import pytest

from repro.errors import ConfigError, MDSUnavailable, StorageUnavailable
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim import Join
from tests.conftest import make_world


def probe_at(world, times, fn):
    """Run *fn* at each simulated time in *times*; returns collected values."""
    env = world.env
    out = []

    def proc():
        last = 0.0
        for t in times:
            yield env.timeout(t - last)
            last = t
            out.append(fn())

    env.run_process(proc())
    return out


class TestCompile:
    def test_osd_outage_downs_then_restores(self):
        w = make_world()
        plan = FaultPlan([FaultEvent(1.0, "osd_outage", target=0, duration=2.0)],
                         seed=0)
        inj = FaultInjector(w, plan)
        assert inj.arm() == 1
        osd = w.volume.pool.osds[0]
        down = probe_at(w, [0.5, 1.5, 3.5], lambda: osd.down)
        assert down == [False, True, False]
        assert [phase for _, _, phase in inj.applied] == ["apply", "recover"]
        assert all(label == "osd_outage:osd0" for _, label, _ in inj.applied)

    def test_down_osd_rejects_new_io(self):
        w = make_world()
        plan = FaultPlan([FaultEvent(0.0, "osd_outage", target=3, duration=1.0)],
                         seed=0)
        FaultInjector(w, plan).arm()
        osd = w.volume.pool.osds[3]

        def proc():
            yield w.env.timeout(0.5)
            # One lane of file 3 (within its first stripe unit) is on OSD 3.
            assert w.volume.pool.lane_osd(3, 0) is osd
            w.volume.pool.io_events(3, 0, 100, Join(w.env))

        with pytest.raises(StorageUnavailable):
            w.env.run_process(proc())

    def test_mds_crash_then_failover(self):
        w = make_world()
        plan = FaultPlan([FaultEvent(1.0, "mds_crash", duration=0.5)], seed=0)
        FaultInjector(w, plan).arm()
        mds = w.volume.mds
        down = probe_at(w, [1.2, 2.0], lambda: mds.down)
        assert down == [True, False]

    def test_crashed_mds_rejects_ops(self):
        w = make_world()
        plan = FaultPlan([FaultEvent(0.0, "mds_crash", duration=5.0)], seed=0)
        FaultInjector(w, plan).arm()

        def proc():
            yield w.env.timeout(1.0)
            yield from w.volume.mds.op("open")

        with pytest.raises(MDSUnavailable):
            w.env.run_process(proc())

    def test_non_component_kind_rejected(self):
        w = make_world()
        inj = FaultInjector(w, FaultPlan((), seed=0))
        with pytest.raises(ConfigError):
            inj._compile(FaultEvent(0.0, "writer_kill"))


class TestArming:
    def test_arm_until_is_windowed(self):
        w = make_world()
        plan = FaultPlan([FaultEvent(float(t), "osd_outage", duration=0.1)
                          for t in (1, 5, 9)], seed=0)
        inj = FaultInjector(w, plan)
        assert inj.pending == 3
        assert inj.arm_until(5.0) == 2
        assert inj.pending == 1
        # Running drains only the armed window; the engine clock never
        # fast-forwards through unarmed future faults.
        w.env.run()
        assert w.env.now == pytest.approx(5.1)
        assert inj.arm() == 1
        w.env.run()
        assert w.env.now == pytest.approx(9.1)

    def test_late_arming_applies_immediately(self):
        w = make_world()
        plan = FaultPlan([FaultEvent(1.0, "osd_outage", target=0,
                                     duration=0.5)], seed=0)
        inj = FaultInjector(w, plan)

        def proc():
            yield w.env.timeout(10.0)

        w.env.run_process(proc())  # clock is now past the apply time
        inj.arm()                  # applies inline, arms the paired recovery
        assert [phase for _, _, phase in inj.applied] == ["apply"]
        assert w.volume.pool.osds[0].down
        w.env.run()
        assert [phase for _, _, phase in inj.applied] == ["apply", "recover"]
        assert not w.volume.pool.osds[0].down
