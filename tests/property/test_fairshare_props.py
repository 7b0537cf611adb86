"""Property-based tests for the GPS fair-share server's invariants."""

import heapq
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Engine, FairShareServer, Join
from repro.sim.resources import _ServeEvent

jobs_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),   # arrival
        st.floats(min_value=0.001, max_value=50.0, allow_nan=False),  # demand
    ),
    min_size=1,
    max_size=25,
)


def run_jobs(jobs, capacity=10.0):
    env = Engine()
    srv = FairShareServer(env, capacity=capacity)
    finishes = {}

    def proc(env, i, arrival, demand):
        yield env.timeout(arrival)
        yield srv.serve(demand)
        finishes[i] = env.now

    for i, (arrival, demand) in enumerate(jobs):
        env.process(proc(env, i, arrival, demand))
    env.run()
    return finishes


@given(jobs_strategy)
@settings(max_examples=150, deadline=None)
def test_every_job_completes(jobs):
    finishes = run_jobs(jobs)
    assert len(finishes) == len(jobs)


@given(jobs_strategy)
@settings(max_examples=150, deadline=None)
def test_no_job_beats_its_dedicated_time(jobs):
    """A job can never finish faster than demand/capacity after arrival."""
    capacity = 10.0
    finishes = run_jobs(jobs, capacity)
    for i, (arrival, demand) in enumerate(jobs):
        assert finishes[i] >= arrival + demand / capacity - 1e-6


@given(jobs_strategy)
@settings(max_examples=150, deadline=None)
def test_work_conservation_upper_bound(jobs):
    """The last completion is no later than serial execution of everything
    starting from the last arrival-constrained point (loose but real)."""
    capacity = 10.0
    finishes = run_jobs(jobs, capacity)
    worst = max(a for a, _ in jobs) + sum(d for _, d in jobs) / capacity
    assert max(finishes.values()) <= worst + 1e-6


@given(jobs_strategy)
@settings(max_examples=100, deadline=None)
def test_equal_arrivals_finish_in_demand_order(jobs):
    """With simultaneous arrivals, smaller demands finish no later."""
    sim = [(0.0, d) for _, d in jobs]
    finishes = run_jobs(sim)
    order = sorted(range(len(sim)), key=lambda i: sim[i][1])
    for a, b in zip(order, order[1:]):
        assert finishes[a] <= finishes[b] + 1e-6


@given(jobs_strategy, st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_capacity_scales_time(jobs, factor):
    """Doubling capacity halves every completion (time-rescaling law).

    Only exact when all arrivals are zero (otherwise arrival constraints
    break the scaling), so pin arrivals.
    """
    sim = [(0.0, d) for _, d in jobs]
    base = run_jobs(sim, capacity=10.0)
    fast = run_jobs(sim, capacity=10.0 * factor)
    for i in base:
        assert fast[i] == pytest.approx(base[i] / factor, rel=1e-6)


@given(jobs_strategy)
@settings(max_examples=100, deadline=None)
def test_total_served_accounting(jobs):
    env = Engine()
    srv = FairShareServer(env, capacity=7.0)

    def proc(env, arrival, demand):
        yield env.timeout(arrival)
        yield srv.serve(demand)

    for arrival, demand in jobs:
        env.process(proc(env, arrival, demand))
    env.run()
    assert srv.total_served == pytest.approx(sum(d for _, d in jobs))
    assert srv.active == 0


@given(jobs_strategy)
@settings(max_examples=80, deadline=None)
def test_work_delivered_is_monotone_and_bounded(jobs):
    """Delivered work never decreases and never exceeds accepted work."""
    env = Engine()
    srv = FairShareServer(env, capacity=10.0)
    observations = []

    def proc(env, arrival, demand):
        yield env.timeout(arrival)
        observations.append(srv.work_delivered())
        yield srv.serve(demand)
        observations.append(srv.work_delivered())

    for arrival, demand in jobs:
        env.process(proc(env, arrival, demand))
    env.run()
    for a, b in zip(observations, observations[1:]):
        assert b >= a - 1e-6
    assert observations[-1] <= srv.total_served + 1e-6
    assert srv.work_delivered() == pytest.approx(srv.total_served)


# -- Join vs AllOf ------------------------------------------------------------

class Boom(Exception):
    pass


@st.composite
def fan_in_scenarios(draw):
    """Servers, requesters fanning out over them, and one optional fault.

    Arrivals and fault times come from a few instants, so requesters,
    completions and the fault often share one.  A *solo* requester waits
    on one plain serve event in both worlds, so a fan-in firing a hop
    early or late shows up as a reordering against it."""
    caps = draw(st.lists(st.floats(min_value=0.5, max_value=20.0),
                         min_size=1, max_size=4))
    demand = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=20.0))
    job = st.tuples(st.integers(min_value=0, max_value=len(caps) - 1), demand)
    requester = st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0]),
                          st.lists(job, min_size=1, max_size=6),
                          st.booleans())
    requesters = draw(st.lists(requester, min_size=2, max_size=8))
    instant = st.sampled_from([0.0, 0.5, 1.0, 1.7])
    server = st.integers(min_value=0, max_value=len(caps) - 1)
    fault = draw(st.one_of(
        st.none(),
        st.tuples(st.just("fail"), server, instant),
        st.tuples(st.just("pause"), server, instant,
                  st.floats(min_value=0.0, max_value=3.0)),
    ))
    return caps, requesters, fault


def run_fan_in(caps, requesters, fault, use_join):
    """Resume log ``(now, requester, outcome)`` in resume order."""
    env = Engine()
    servers = [FairShareServer(env, c, name=f"s{i}") for i, c in enumerate(caps)]
    log = []
    failures = []

    def requester(env, rid, arrival, jobs, solo):
        yield env.timeout(arrival)
        if solo:
            k, d = jobs[0]
            done = servers[k].serve(d)
        elif use_join:
            join = Join(env)
            for k, d in jobs:
                servers[k].serve(d, join)
            done = join
        else:
            done = env.all_of([servers[k].serve(d) for k, d in jobs])
        try:
            yield done
        except Boom as exc:
            log.append((env.now, rid, str(exc)))
        else:
            log.append((env.now, rid, "ok"))

    def make_exc():
        failures.append(len(failures))
        return Boom(f"boom{failures[-1]}")

    def disturb(env):
        kind, k, t = fault[:3]
        yield env.timeout(t)
        if kind == "fail":
            servers[k].fail_all(make_exc)
        else:
            servers[k].pause()
            yield env.timeout(fault[3])
            servers[k].resume()

    for rid, (arrival, jobs, solo) in enumerate(requesters):
        env.process(requester(env, rid, arrival, jobs, solo))
    if fault is not None:
        env.process(disturb(env))
    env.run()
    assert len(log) == len(requesters)
    return log


@given(fan_in_scenarios())
@settings(max_examples=200, deadline=None)
def test_join_matches_all_of_of_serve_events(scenario):
    """Waiting on one Join is indistinguishable from waiting on an AllOf of
    per-job serve events: bit-equal completion times, the same resume
    order within each instant, and under fail_all the same exception at
    the same instant, raised once per requester."""
    caps, requesters, fault = scenario
    assert (run_fan_in(caps, requesters, fault, use_join=True)
            == run_fan_in(caps, requesters, fault, use_join=False))


def test_join_fails_once_with_the_first_exception():
    env = Engine()
    a, b = FairShareServer(env, 1.0, "a"), FairShareServer(env, 1.0, "b")
    join = Join(env)
    for d in (1.0, 2.0):
        a.serve(d, join)
    b.serve(5.0, join)
    caught = []

    def waiter(env):
        try:
            yield join
        except Boom as exc:
            caught.append((env.now, str(exc)))

    def crash(env):
        yield env.timeout(0.5)
        made = iter(range(10))
        assert a.fail_all(lambda: Boom(f"boom{next(made)}")) == 2

    env.process(waiter(env))
    env.process(crash(env))
    env.run()  # b's later completion must not re-trigger the join
    assert caught == [(0.5, "boom0")]
    assert b.active == 0 and env.now == 5.0


# -- bit-exact differential against the reference arithmetic -----------------

class ReferenceServer:
    """The GPS server written out method by method: a virtual-time advance,
    a deadline recompute and a timer arm, each its own call.

    :class:`FairShareServer` inlines these on its per-job paths; this copy
    keeps the plain form so the inlined one can be checked against it
    bit for bit."""

    def __init__(self, env, capacity):
        self.env = env
        self.capacity = float(capacity)
        self._vtime = 0.0
        self._t_last = 0.0
        self._jobs = []
        self._seq = 0
        self._deadline = math.inf
        self._armed_at = math.inf
        self._timer = None
        self._paused = False
        self.total_served = 0.0
        self.peak_active = 0
        self.busy_time = 0.0

    @property
    def active(self):
        return len(self._jobs)

    def work_remaining(self):
        vtime = self._vtime
        dt = self.env.now - self._t_last
        if self._jobs and not self._paused and dt > 0:
            vtime += dt * self.capacity / len(self._jobs)
        return sum(fv - vtime for fv, _, _ in self._jobs)

    def _advance(self):
        now = self.env.now
        if self._jobs and not self._paused:
            dt = now - self._t_last
            if dt > 0:
                self._vtime += dt * self.capacity / len(self._jobs)
                self.busy_time += dt
        self._t_last = now

    def pause(self):
        if self._paused:
            return
        self._advance()
        self._paused = True
        self._deadline = math.inf
        self._timer, self._armed_at = None, math.inf

    def resume(self):
        if not self._paused:
            return
        self._paused = False
        self._t_last = self.env.now
        self._reschedule()

    def fail_all(self, make_exc):
        self._advance()
        jobs, self._jobs = self._jobs, []
        self._deadline = math.inf
        self._timer, self._armed_at = None, math.inf
        for _, _, ev in jobs:
            ev._job_failed(make_exc())
        return len(jobs)

    def serve(self, demand, join=None):
        if join is None:
            target = _ServeEvent(self.env)
            target.server = self
            if demand == 0:
                target.succeed()
                return target
        else:
            target = join
            join._remaining += 1
            join.servers.append(self)
            if demand == 0:
                join._relay(join._zero_done)
                return join
        self._advance()
        self._seq += 1
        heapq.heappush(self._jobs, (self._vtime + demand, self._seq, target))
        self.total_served += demand
        self.peak_active = max(self.peak_active, len(self._jobs))
        self._reschedule()
        return target

    def serve_many(self, demands, join):
        self._advance()
        join.servers.append(self)
        pushed = 0
        for demand in demands:
            join._remaining += 1
            if demand == 0:
                join._relay(join._zero_done)
                continue
            self._seq += 1
            job = (self._vtime + demand, self._seq, join)
            if pushed:
                self._jobs.append(job)
            else:
                heapq.heappush(self._jobs, job)
            pushed += 1
            self.total_served += demand
        if pushed:
            if pushed > 1:
                heapq.heapify(self._jobs)
            self.peak_active = max(self.peak_active, len(self._jobs))
            self._reschedule()
        return join

    def _reschedule(self):
        if self._paused:
            return
        if not self._jobs:
            self._deadline = math.inf
            return
        k = len(self._jobs)
        dt = max(0.0, (self._jobs[0][0] - self._vtime) * k / self.capacity)
        self._deadline = self.env.now + dt
        if self._deadline < self._armed_at:
            self._arm()

    def _arm(self):
        self._armed_at = self._deadline
        self._timer = self.env.schedule_at(self._deadline)
        self._timer.callbacks = self._on_timer

    def _on_timer(self, timer):
        if timer is not self._timer:
            return
        self._armed_at = math.inf
        if self.env.now < self._deadline:
            self._arm()
            return
        self._advance()
        eps = 1e-9 * max(1.0, abs(self._vtime))
        completed = []
        while self._jobs and self._jobs[0][0] <= self._vtime + eps:
            completed.append(heapq.heappop(self._jobs)[2])
        if not completed and self._jobs:
            fv, _, ev = heapq.heappop(self._jobs)
            self._vtime = fv
            completed.append(ev)
        for ev in completed:
            ev._job_done()
        self._reschedule()


# Values on a coarse grid (plus a tiny nudge) make arrivals land on
# completion instants and virtual finishes nearly tie, which is where the
# clamp, the batching epsilon and the rounding order show.
nudge_st = st.sampled_from([0.0, 0.0, 1e-16, 1e-12, 5e-11, 2e-9])
grid_st = st.builds(lambda base, nudge: base + nudge,
                    st.sampled_from([1e-3, 0.1, 0.2, 0.3, 0.5, 1.0, 3.0]), nudge_st)
demand_st = st.one_of(st.just(0.0), grid_st,
                      st.floats(min_value=1e-6, max_value=1e3),
                      st.floats(min_value=1e6, max_value=1e9))
capacity_st = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 10.0]),
                        st.floats(min_value=0.5, max_value=20.0),
                        st.floats(min_value=1e8, max_value=1e10))
op_st = st.one_of(
    st.tuples(st.just("serve"), demand_st),
    st.tuples(st.just("join"), st.lists(demand_st, min_size=1, max_size=4)),
    st.tuples(st.just("many"), st.lists(demand_st, max_size=5)),
    st.tuples(st.just("pause")),
    st.tuples(st.just("resume")),
    st.tuples(st.just("fail")),
)
delay_st = st.one_of(st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0]),
                     st.floats(min_value=0.0, max_value=1e3))


def run_stream(make_server, capacity, steps):
    """Apply *steps* to one server; return its completion log and stats.

    The log holds ``(step, now as float.hex, succeeded)`` in the order the
    completions were processed, and after each step the work still owed
    (a pure read of the virtual time, as float.hex)."""
    env = Engine()
    srv = make_server(env, capacity)
    log = []

    def note(step):
        return lambda ev: log.append((step, env.now.hex(), ev._exc is None))

    def arrivals(env):
        for step, (delay, op) in enumerate(steps):
            if delay:
                yield env.timeout(delay)
            kind = op[0]
            if kind == "serve":
                srv.serve(op[1])._add_callback(note(step))
            elif kind == "join":
                join = Join(env)
                for demand in op[1]:
                    srv.serve(demand, join)
                join._add_callback(note(step))
            elif kind == "many":
                srv.serve_many(op[1], Join(env))._add_callback(note(step))
            elif kind == "pause":
                srv.pause()
            elif kind == "resume":
                srv.resume()
            else:
                log.append((step, "fail_all", srv.fail_all(Boom)))
            log.append((step, float(srv.work_remaining()).hex()))

    env.process(arrivals(env))
    env.run()
    return (log, srv.total_served.hex(), srv.busy_time.hex(), srv.peak_active,
            srv.active, env.now.hex(), env._eid)


@given(capacity_st, st.lists(st.tuples(delay_st, op_st), min_size=1, max_size=30))
@example(1.0, [(0.0, ("many", [0.1, 0.2])), (0.1, ("many", [])),
               (0.2, ("serve", 1.0))])  # an arrival sees a negative dt
@example(1.0, [(0.0, ("many", [1e-3, 1e-3 + 5e-11]))])  # epsilon batching
@settings(max_examples=300, deadline=None)
def test_inlined_server_matches_reference_bit_for_bit(capacity, steps):
    """Every completion instant, outcome and statistic of
    :class:`FairShareServer` equals the reference's exactly, and both draw
    the same number of event sequence ids (the same timers).

    The explicit examples reach two branches random streams rarely do: an
    arrival landing on a due completion before its timer fires, when the
    advanced virtual time overshoots the finish by an ulp and the deadline
    clamps to now; and two finishes within the batching epsilon at a
    virtual time below 1."""
    assert (run_stream(FairShareServer, capacity, steps)
            == run_stream(ReferenceServer, capacity, steps))
