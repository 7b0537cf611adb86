"""Microbenchmarks of the simulation kernel itself (events/sec budget)."""

import time

from repro.analysis.sanitize import Sanitizer, tracked
from repro.sim import Engine, FairShareServer
from repro.sim.engine import Process


def test_engine_event_throughput(benchmark):
    """Timeout-chain throughput: the floor cost of every simulated op."""

    def run():
        env = Engine()

        def proc(env):
            for _ in range(2000):
                yield env.timeout(1.0)

        for _ in range(50):
            env.process(proc(env))
        env.run()
        return env.now

    assert benchmark(run) == 2000.0


def test_zero_delay_storm(benchmark):
    """Succeed-chain storm: every event is same-timestamp, zero-delay.

    This is the immediate-queue fast path in isolation — no timeouts, so
    a heap-based engine pays O(log n) per trigger while the FIFO deque
    pays O(1).  The pattern is what bulk-synchronous completions
    (collective fan-in, AllOf joins) look like from the kernel's side.
    """

    def run():
        env = Engine()

        def proc(env, depth):
            for _ in range(depth):
                ev = env.event()
                ev.succeed()
                yield ev
            return env.now

        for _ in range(100):
            env.process(proc(env, 1000))
        env.run()
        return env.now

    assert benchmark(run) == 0.0  # simulated time never advances


def test_heap_delay_storm(benchmark):
    """The same event volume through the time heap (distinct timestamps).

    The comparison partner of :func:`test_zero_delay_storm`: identical
    event count, but every event carries a unique delay so each takes the
    heap path.  The zero-delay storm should beat this comfortably.
    """

    def run():
        env = Engine()

        def proc(env, i):
            for k in range(1000):
                yield env.timeout(1.0 + i * 1e-7 + k * 1e-9)
            return env.now

        for i in range(100):
            env.process(proc(env, i))
        env.run()
        return env.now

    assert benchmark(run) > 0.0


def test_fair_share_throughput(benchmark):
    """GPS server with heavy churn: arrivals/completions interleaved."""

    def run():
        env = Engine()
        srv = FairShareServer(env, capacity=1e9)

        def proc(env, i):
            yield env.timeout(i * 1e-6)
            for _ in range(200):
                yield srv.serve(1e6)

        for i in range(100):
            env.process(proc(env, i))
        env.run()
        return srv.total_served

    assert benchmark(run) == 100 * 200 * 1e6


def test_serve_many_bulk_arrival(benchmark):
    """Batched same-instant arrivals: one serve_many per round.

    The bulk-synchronous case where one caller submits a whole wave of
    demands at once — one virtual-time advance, one heapify, and at most
    one timer per round instead of one of each per job.
    """

    def run():
        env = Engine()
        srv = FairShareServer(env, capacity=1e9)

        def driver(env):
            for round_no in range(200):
                events = srv.serve_many([1e6 + i for i in range(100)])
                yield env.all_of(events)

        env.process(driver(env))
        env.run()
        return srv.total_served

    expected = 200 * (100 * 1e6 + sum(range(100)))
    assert benchmark(run) == expected


def test_sanitizer_off_is_structurally_free():
    """With no sanitizer subscribed, the race-detection machinery must
    cost nothing: tracked() hands back the very same dict (every later
    access is a plain dict op), and the engine's process factory is the
    stock ``partial(Process, env)`` — no wrapper generator in the resume
    path.  Unsubscribing a sanitizer restores exactly that state."""
    env = Engine()
    d = {}
    assert tracked(env, d, "state") is d
    assert env.observers == []
    assert getattr(env.process, "func", None) is Process
    assert getattr(env.process, "args", None) == (env,)
    san = env.subscribe(Sanitizer(env))
    assert getattr(env.process, "func", None) is not Process
    env.unsubscribe(san)
    assert tracked(env, d, "state") is d
    assert getattr(env.process, "func", None) is Process
    assert getattr(env.process, "args", None) == (env,)


def test_sanitizer_off_overhead_under_two_percent():
    """Dict-churn workload through tracked() containers vs. plain dicts.

    Because ``tracked()`` is the identity when the sanitizer is off, both
    sides execute identical bytecode on identical objects; the measured
    ratio is pure noise around 1.0 and the 2% bound documents the
    guarantee.  min-of-repeats keeps scheduler noise out of the ratio.
    """

    def workload(wrap):
        env = Engine()
        d = wrap(env, {}, "state") if wrap is not None else {}

        def proc(env, base):
            for i in range(2000):
                d[(base + i) % 64] = i
                _ = d.get((base + i) % 64)
                yield env.timeout(1.0)

        for p in range(20):
            env.process(proc(env, p * 7))
        env.run()
        return env.now

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    # Interleave A/B repetitions so frequency scaling and scheduler noise
    # hit both sides alike; compare the best (least-perturbed) run each.
    workload(tracked), workload(None)   # warm up both paths
    with_tracked = min(timed(lambda: workload(tracked)) for _ in range(7))
    plain = min(timed(lambda: workload(None)) for _ in range(7))
    with_tracked = min(with_tracked,
                       *(timed(lambda: workload(tracked)) for _ in range(3)))
    plain = min(plain, *(timed(lambda: workload(None)) for _ in range(3)))
    overhead = with_tracked / plain - 1.0
    assert overhead < 0.02, (
        f"sanitizer-off overhead {overhead:.1%} exceeds 2% "
        f"(tracked {with_tracked:.4f}s vs plain {plain:.4f}s)")
