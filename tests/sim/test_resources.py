"""Unit tests for Mutex, FairShareServer, and Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, FairShareServer, Mutex, Store


class TestResource:
    """:class:`Mutex`, the FIFO lock."""

    def test_immediate_grant(self):
        env = Engine()
        res = Mutex(env)

        def proc(env):
            yield res.acquire()
            return env.now

        assert env.run_process(proc(env)) == 0
        assert res.locked

    def test_blocks_at_capacity(self):
        env = Engine()
        res = Mutex(env)
        order = []

        def holder(env):
            yield res.acquire()
            yield env.timeout(5)
            order.append(("holder-release", env.now))
            res.release()

        def waiter(env):
            yield res.acquire()
            order.append(("waiter-acquired", env.now))
            res.release()

        env.process(holder(env))
        env.process(waiter(env))
        env.run()
        assert order == [("holder-release", 5), ("waiter-acquired", 5)]
        assert not res.locked

    def test_fifo_granting_no_barging(self):
        env = Engine()
        res = Mutex(env)
        grants = []

        def proc(env, tag):
            yield res.acquire()
            grants.append(tag)
            yield env.timeout(1)
            res.release()

        # "late" asks at the very instant the holder releases: the queued
        # waiters are granted first.
        def scenario(env):
            yield res.acquire()
            env.process(proc(env, "first"))
            env.process(proc(env, "second"))
            yield env.timeout(3)
            res.release()
            env.process(proc(env, "late"))

        env.run_process(scenario(env))
        env.run()
        assert grants == ["first", "second", "late"]

    def test_over_release_rejected(self):
        env = Engine()
        res = Mutex(env)
        with pytest.raises(SimulationError):
            res.release()

    def test_mutex_serializes(self):
        env = Engine()
        m = Mutex(env)
        spans = []

        def critical(env, tag):
            yield m.acquire()
            start = env.now
            yield env.timeout(2)
            spans.append((tag, start, env.now))
            m.release()

        for i in range(4):
            env.process(critical(env, i))
        env.run()
        # No two critical sections overlap.
        spans.sort(key=lambda s: s[1])
        for (_, _, end0), (_, start1, _) in zip(spans, spans[1:]):
            assert start1 >= end0
        assert env.now == 8


class TestFairShareServer:
    def test_single_job_full_rate(self):
        env = Engine()
        srv = FairShareServer(env, capacity=100.0)

        def proc(env):
            yield srv.serve(500.0)
            return env.now

        assert env.run_process(proc(env)) == pytest.approx(5.0)

    def test_two_equal_jobs_share_equally(self):
        env = Engine()
        srv = FairShareServer(env, capacity=100.0)
        ends = []

        def proc(env):
            yield srv.serve(500.0)
            ends.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        # Each sees rate 50 -> both finish at t=10; aggregate stays 100.
        assert ends == [pytest.approx(10.0)] * 2

    def test_work_conservation_with_staggered_arrivals(self):
        env = Engine()
        srv = FairShareServer(env, capacity=100.0)
        ends = {}

        def proc(env, tag, start, demand):
            yield env.timeout(start)
            yield srv.serve(demand)
            ends[tag] = env.now

        # a: 600 units at t=0. b: 200 units at t=2.
        # t in [0,2): a alone, rate 100 -> a has 400 left at t=2.
        # t in [2,?): both, rate 50 each. b finishes 200 at t=6; a has 200 left.
        # a alone again, rate 100 -> finishes at t=8.
        env.process(proc(env, "a", 0, 600))
        env.process(proc(env, "b", 2, 200))
        env.run()
        assert ends["b"] == pytest.approx(6.0)
        assert ends["a"] == pytest.approx(8.0)

    def test_late_arrival_delays_earlier_job(self):
        """A previously-armed completion must be re-evaluated on arrival."""
        env = Engine()
        srv = FairShareServer(env, capacity=10.0)
        ends = {}

        def proc(env, tag, start, demand):
            yield env.timeout(start)
            yield srv.serve(demand)
            ends[tag] = env.now

        # a: demand 100, alone would finish at t=10.
        # b arrives at t=9 with demand 100: from t=9 each gets rate 5.
        # a has 10 left -> +2s -> t=11.  b then alone: 90 left at rate 10 -> t=20.
        env.process(proc(env, "a", 0, 100))
        env.process(proc(env, "b", 9, 100))
        env.run()
        assert ends["a"] == pytest.approx(11.0)
        assert ends["b"] == pytest.approx(20.0)

    def test_zero_demand_completes_immediately(self):
        env = Engine()
        srv = FairShareServer(env, capacity=1.0)

        def proc(env):
            yield srv.serve(0.0)
            return env.now

        assert env.run_process(proc(env)) == 0

    def test_negative_demand_rejected(self):
        env = Engine()
        srv = FairShareServer(env, capacity=1.0)
        with pytest.raises(SimulationError):
            srv.serve(-1.0)

    def test_capacity_validation(self):
        env = Engine()
        with pytest.raises(SimulationError):
            FairShareServer(env, capacity=0.0)

    def test_aggregate_throughput_is_capacity(self):
        """N simultaneous equal jobs all finish at N*d/C (bulk-sync case)."""
        env = Engine()
        srv = FairShareServer(env, capacity=1000.0)
        ends = []

        def proc(env):
            yield srv.serve(10.0)
            ends.append(env.now)

        n = 256
        for _ in range(n):
            env.process(proc(env))
        env.run()
        assert all(t == pytest.approx(n * 10.0 / 1000.0) for t in ends)
        assert srv.total_served == pytest.approx(n * 10.0)
        assert srv.peak_active == n

    def test_utilization(self):
        env = Engine()
        srv = FairShareServer(env, capacity=10.0)

        def proc(env):
            yield env.timeout(5)
            yield srv.serve(50.0)  # takes 5s

        env.run_process(proc(env))
        assert env.now == pytest.approx(10.0)
        assert srv.utilization() == pytest.approx(0.5)


class TestStore:
    def test_put_then_get(self):
        env = Engine()
        store = Store(env)
        store.put("x")

        def proc(env):
            item = yield store.get()
            return item

        assert env.run_process(proc(env)) == "x"

    def test_get_blocks_until_put(self):
        env = Engine()
        store = Store(env)

        def getter(env):
            item = yield store.get()
            return (item, env.now)

        def putter(env):
            yield env.timeout(3)
            store.put("late")

        p = env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert p.value == ("late", 3)

    def test_fifo_order_items_and_getters(self):
        env = Engine()
        store = Store(env)
        got = []

        def getter(env, tag):
            item = yield store.get()
            got.append((tag, item))

        env.process(getter(env, "g1"))
        env.process(getter(env, "g2"))

        def putter(env):
            yield env.timeout(1)
            store.put("a")
            store.put("b")
            store.put("c")

        env.process(putter(env))
        env.run()
        assert got == [("g1", "a"), ("g2", "b")]
        assert len(store) == 1
