"""Property-based tests for the GPS fair-share server's invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, FairShareServer, Join

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
