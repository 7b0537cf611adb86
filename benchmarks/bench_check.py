"""Model-checker cost guards: free when off, faithful when on.

Three contracts a tie-breaking (``select``) observer on the engine's bus
(:meth:`repro.sim.Engine.subscribe`) must keep:

* **off by default and off after unsubscribe** — a fresh engine and one
  whose observer left run the stock inlined loop (the bus is read once
  per ``run()``, not per event);
* **explorer-off throughput regresses < 2 %** — interleaved
  min-of-repeats of an identical event workload on a never-subscribed
  engine vs a subscribed-then-unsubscribed one;
* **the observed loop with choice 0 everywhere is the stock run** —
  identical final simulated time, which is what makes the empty schedule
  (and therefore every recorded trace) an honest replay.
"""

import time

from repro.sim import Engine

_PROCS = 20
_STEPS = 2000


def _workload(env):
    def proc(env):
        for _ in range(_STEPS):
            yield env.timeout(1.0)

    for _ in range(_PROCS):
        env.process(proc(env))


class _DefaultScheduler:
    """Always chooses index 0: reproduces the uncontrolled order."""

    def select(self, ready):
        return 0

    def fired(self, eid, event):
        pass

    def quiescent(self, now):
        pass


def _run_stock():
    env = Engine()
    _workload(env)
    env.run()
    return env.now


def _run_subscribe_unsubscribe():
    env = Engine()
    env.unsubscribe(env.subscribe(_DefaultScheduler()))
    _workload(env)
    env.run()
    return env.now


# -- structural: the hook is off unless asked for ---------------------------

def test_scheduler_off_by_default():
    assert Engine().subscribers("select") == ()


def test_detach_restores_stock_loop():
    env = Engine()
    sched = env.subscribe(_DefaultScheduler())
    assert env.subscribers("select") == (sched.select,)
    env.unsubscribe(sched)
    assert env.subscribers("select") == ()
    assert env.observers == []


# -- fidelity: observed default == unobserved --------------------------------

def test_controlled_default_schedule_matches_stock():
    t_stock = _run_stock()
    env = Engine()
    env.subscribe(_DefaultScheduler())
    _workload(env)
    env.run()
    assert env.now == t_stock == float(_STEPS)


# -- the <2% guard -----------------------------------------------------------

def test_explorer_off_overhead_under_two_percent():
    """Subscribed-then-unsubscribed engines must run at stock speed.

    Interleaved min-of-repeats: alternating the two arms within one
    process cancels warm-up and frequency drift, and the min discards
    scheduler noise — the residual difference is the bus's true cost,
    which is one per-``run()`` flag check.
    """
    best_stock = best_detached = float("inf")
    for _ in range(15):
        t0 = time.perf_counter()
        _run_stock()
        best_stock = min(best_stock, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _run_subscribe_unsubscribe()
        best_detached = min(best_detached, time.perf_counter() - t0)
    # 1 ms absolute slack keeps sub-millisecond timer jitter from
    # mattering if the workload ever shrinks.
    assert best_detached <= best_stock * 1.02 + 1e-3, (
        f"explorer-off regression: detached {best_detached * 1e3:.2f} ms "
        f"vs stock {best_stock * 1e3:.2f} ms")


# -- observed-loop throughput (informational trend line) ---------------------

def test_controlled_loop_throughput(benchmark):
    """Same workload through the observed decision-point loop: the price of
    exploration itself, tracked so checker budgets stay predictable."""

    def run():
        env = Engine()
        env.subscribe(_DefaultScheduler())
        _workload(env)
        env.run()
        return env.now

    assert benchmark(run) == float(_STEPS)
