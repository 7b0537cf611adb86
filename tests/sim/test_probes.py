"""Tests for bandwidth probes, the engine's ``quiescent`` observers."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, FairShareServer
from repro.sim.probes import BandwidthProbe, summarize_probe


class TestBandwidthProbe:
    def test_probe_samples_service_rate(self):
        env = Engine()
        srv = FairShareServer(env, capacity=100.0)
        probe = BandwidthProbe(env, srv, period=1.0)

        def proc(env):
            yield env.timeout(2.0)
            yield srv.serve(300.0)  # 3s at full rate: t=2..5
            yield env.timeout(3.0)  # idle tail so late samples exist

        env.run_process(proc(env))
        series = dict(probe.series())
        assert series[1.0] == 0.0                      # idle before the burst
        assert series[4.0] == pytest.approx(100.0)     # mid-burst at capacity
        assert series[7.0] == 0.0                      # idle after

    def test_probe_interpolates_between_drained_instants(self):
        """Boundaries inside a long busy stretch get the linear share."""
        env = Engine()
        srv = FairShareServer(env, capacity=10.0)
        probe = BandwidthProbe(env, srv, period=0.25)

        def proc(env):
            yield env.timeout(0.5)
            yield srv.serve(10.0)  # t=0.5..1.5, no event in between

        env.run_process(proc(env))
        assert probe.series() == pytest.approx(
            [(0.25, 0.0), (0.5, 0.0), (0.75, 10.0), (1.0, 10.0),
             (1.25, 10.0), (1.5, 10.0)])

    def test_probe_does_not_extend_the_run(self):
        env = Engine()
        srv = FairShareServer(env, capacity=10.0)
        BandwidthProbe(env, srv, period=0.5)

        def proc(env):
            yield srv.serve(20.0)

        env.run_process(proc(env))
        assert env.now == pytest.approx(2.0)

    def test_probe_survives_across_jobs(self):
        env = Engine()
        srv = FairShareServer(env, capacity=10.0)
        probe = BandwidthProbe(env, srv, period=1.0)

        def job(env):
            yield srv.serve(20.0)

        env.run_process(job(env))
        first = len(probe.series())
        env.run_process(job(env))
        assert len(probe.series()) > first

    def test_summary(self):
        env = Engine()
        srv = FairShareServer(env, capacity=100.0)
        probe = BandwidthProbe(env, srv, period=1.0)

        def proc(env):
            yield srv.serve(200.0)
            yield env.timeout(2.0)

        env.run_process(proc(env))
        peak, mean, duty = summarize_probe(probe, capacity=100.0)
        assert peak == pytest.approx(100.0)
        assert 0 < mean < 100.0
        assert 0 < duty < 1.0

    def test_bad_period_rejected(self):
        env = Engine()
        srv = FairShareServer(env, capacity=1.0)
        with pytest.raises(SimulationError):
            BandwidthProbe(env, srv, period=0)

    def test_stop(self):
        env = Engine()
        srv = FairShareServer(env, capacity=10.0)
        probe = BandwidthProbe(env, srv, period=1.0)
        probe.stop()
        probe.stop()  # idempotent

        def proc(env):
            yield srv.serve(100.0)

        env.run_process(proc(env))
        assert probe.series() == []
        assert env.observers == []


class TestProbeLeavesTheModelAlone:
    """Reading a server must not change its float rounding: completion
    times are bit-identical with and without a probe attached."""

    @staticmethod
    def _completions(period):
        env = Engine()
        srv = FairShareServer(env, capacity=7.3)
        if period is not None:
            BandwidthProbe(env, srv, period=period)
        done = {}

        def job(env, i):
            yield env.timeout(i * 0.0137)
            yield srv.serve(0.3 + (i * 0.61) % 1.9)
            done[i] = env.now.hex()

        for i in range(40):
            env.process(job(env, i))
        env.run()
        return done

    @pytest.mark.parametrize("period", [0.01, 0.0371, 0.1])
    def test_completion_times_bitwise_identical(self, period):
        bare = self._completions(None)
        assert len(bare) == 40
        assert self._completions(period) == bare

    def test_work_remaining_is_a_pure_read(self):
        env = Engine()
        srv = FairShareServer(env, capacity=3.0)
        seen = []

        def proc(env):
            ev = srv.serve(9.0)
            yield env.timeout(1.1)
            before = (srv._vtime, srv._t_last, srv.busy_time)
            seen.append(srv.work_remaining())
            assert (srv._vtime, srv._t_last, srv.busy_time) == before
            yield ev

        env.run_process(proc(env))
        assert seen == [pytest.approx(9.0 - 3.3)]
