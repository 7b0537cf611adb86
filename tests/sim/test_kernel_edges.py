"""Kernel edges the hot-path overhaul must keep intact.

The immediate-event fast path and the deadline-based FairShareServer
timers both change *how* events are queued without being allowed to
change *when* or *in what order* they fire.  These tests pin the
observable contracts: (time, eid) FIFO ordering of same-timestamp
events, the float-underflow completion branch, and serve_many's exact
equivalence to a loop of serve() calls.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, FairShareServer


class TestSameTimestampOrdering:
    def test_fifo_order_of_immediate_triggers(self):
        """Events triggered at one instant fire in trigger (eid) order."""
        env = Engine()
        log = []
        events = [env.event() for _ in range(5)]
        for i, ev in enumerate(events):
            ev._add_callback(lambda _e, i=i: log.append(i))
        # Trigger out of creation order: firing must follow *trigger* order.
        for i in (2, 0, 4, 1, 3):
            events[i].succeed()
        env.run()
        assert log == [2, 0, 4, 1, 3]

    def test_heap_entry_beats_later_immediate_at_same_time(self):
        """A timeout landing exactly now fires before immediates triggered
        while it was still queued — global (time, eid) order, not
        queue-of-origin order."""
        env = Engine()
        log = []
        first = env.timeout(1.0)   # heap, small eid
        second = env.timeout(1.0)  # heap, next eid
        bystander = env.event()

        def on_first(_ev):
            log.append("first")
            # Triggered at t=1.0 *after* `second` was armed: must fire last.
            bystander.succeed()

        first._add_callback(on_first)
        second._add_callback(lambda _ev: log.append("second"))
        bystander._add_callback(lambda _ev: log.append("bystander"))
        env.run()
        assert log == ["first", "second", "bystander"]

    def test_processes_start_in_spawn_order(self):
        env = Engine()
        log = []

        def proc(env, tag):
            log.append(tag)
            yield env.timeout(1)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert log == ["a", "b", "c"]


class TestScheduleAt:
    def test_fires_at_exact_absolute_time(self):
        env = Engine()
        times = []
        # 0.1 + 0.2 != 0.3 in floats; schedule_at must not re-round.
        target = 0.30000000000000004
        ev = env.schedule_at(target)
        ev._add_callback(lambda _ev: times.append(env.now))
        env.run()
        assert times == [target]

    def test_past_time_rejected(self):
        env = Engine()
        env.timeout(5.0)
        env.run()
        with pytest.raises(SimulationError, match="in the past"):
            env.schedule_at(1.0)

    def test_at_current_instant_fires_now(self):
        env = Engine()
        times = []

        def proc(env):
            yield env.timeout(2.0)
            at = env.schedule_at(env.now)
            at._add_callback(lambda _ev: times.append(env.now))

        env.process(proc(env))
        env.run()
        assert times == [2.0]


class TestFairShareUnderflow:
    def test_tiny_residual_at_huge_now_completes(self):
        """When now is so large the residual wall delay underflows below
        one ulp, the server must force-complete the top job rather than
        loop forever re-arming a timer for 'now'."""
        env = Engine()
        srv = FairShareServer(env, capacity=1e9)
        done = []

        def proc(env):
            yield env.timeout(1e18)  # ulp(1e18) = 128 >> 1e-9 service time
            ev = srv.serve(1.0)
            ev._add_callback(lambda _ev: done.append(env.now))

        env.process(proc(env))
        env.run()
        assert done == [1e18]
        assert srv.active == 0

    def test_vtime_snaps_to_forced_finish(self):
        env = Engine()
        srv = FairShareServer(env, capacity=1e9)

        def proc(env):
            yield env.timeout(1e18)
            yield srv.serve(1.0)

        env.run_process(proc(env))
        assert srv._vtime == pytest.approx(1.0)


class TestServeMany:
    def test_matches_loop_of_serve_exactly(self):
        """serve_many must reproduce a serve() loop's completion times
        bit-for-bit (same virtual finish order, same wall timestamps)."""
        demands = [3e6, 1e6, 2e6, 1e6, 5e5]

        def completions(batch: bool):
            env = Engine()
            srv = FairShareServer(env, capacity=1e9)
            times = {}

            def submit(env):
                yield env.timeout(0.5)  # arrive mid-run, not at t=0
                if batch:
                    events = srv.serve_many(demands)
                else:
                    events = [srv.serve(d) for d in demands]
                for i, ev in enumerate(events):
                    ev._add_callback(lambda _e, i=i: times.setdefault(i, env.now))

            env.process(submit(env))
            env.run()
            return times

        assert completions(batch=True) == completions(batch=False)

    def test_zero_demand_succeeds_immediately(self):
        env = Engine()
        srv = FairShareServer(env, capacity=1e9)
        events = srv.serve_many([0.0, 1e6, 0.0])
        assert events[0].triggered and events[2].triggered
        assert not events[1].triggered
        env.run()
        assert events[1].triggered

    def test_negative_demand_rejected(self):
        env = Engine()
        srv = FairShareServer(env, capacity=1e9)
        with pytest.raises(SimulationError, match="negative demand"):
            srv.serve_many([1e6, -1.0])

    def test_empty_batch_is_a_no_op(self):
        env = Engine()
        srv = FairShareServer(env, capacity=1e9)
        assert srv.serve_many([]) == []
        assert srv.active == 0


class TestSkipRearmTimerEconomy:
    def test_storm_of_laggards_arms_one_timer(self):
        """Arrivals behind the heap top must not create timer events."""
        env = Engine()
        srv = FairShareServer(env, capacity=1e9)
        done = []

        def submit(env):
            first = srv.serve(1e6)  # becomes and stays the earliest finish
            laggards = srv.serve_many([2e6] * 50)
            for ev in [first] + laggards:
                ev._add_callback(lambda _e: done.append(env.now))
            yield first

        seq_before = srv._timer_seq
        env.process(submit(env))
        env.run()
        # One arm for `first`, plus the early-fire chain and completion
        # re-arms — far fewer than the 51 per-arrival timers of old.
        assert srv._timer_seq - seq_before <= 4
        assert len(done) == 51

    def test_earlier_arrival_still_preempts_armed_timer(self):
        """An arrival that becomes the new earliest finish must re-arm."""
        env = Engine()
        srv = FairShareServer(env, capacity=1e6)
        order = []

        def submit(env):
            big = srv.serve(10e6)
            small = srv.serve(1e6)  # earlier virtual finish than big
            big._add_callback(lambda _e: order.append(("big", env.now)))
            small._add_callback(lambda _e: order.append(("small", env.now)))
            yield big

        env.process(submit(env))
        env.run()
        assert [tag for tag, _ in order] == ["small", "big"]
        # small: 1e6 demand at half rate (2 jobs) -> 2s.
        assert order[0][1] == pytest.approx(2.0)
        # big: 2s at half rate + remaining 9e6 at full rate -> 11s.
        assert order[1][1] == pytest.approx(11.0)
