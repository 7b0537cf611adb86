"""Cost guards for the collective-matching analyzer and trace validator.

Two contracts keep the new tooling affordable:

* **the full-tree collectives lint stays under 30 s** — it runs in CI on
  every push, so its wall time bounds the feedback loop;
* **tracer-off harness overhead stays under 2 %** — every collective
  asks the engine's bus for ``collective`` subscribers; with none
  subscribed that lookup must be all the instrumentation costs.

A third, informational benchmark times the tracer *on*, so the price of
``--instrument collectives`` stays visible in the benchmark trend line.
"""

import time
from pathlib import Path

from repro.analysis.collectives import analyze_paths
from repro.analysis.config import load_config
from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.mpi import run_job
from repro.mpi.trace import attach_tracer
from repro.sim import Engine

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

_ROUNDS = 40


def _job(tracer=False):
    """A collective-heavy job: the shape the tracer instruments most."""
    env = Engine()
    cluster = Cluster(env, ClusterSpec(name="b", n_nodes=4,
                                       node=NodeSpec(cores=4)))
    if tracer:
        attach_tracer(env, strict=True)

    def fn(ctx):
        c = ctx.comm
        for _ in range(_ROUNDS):
            yield from c.barrier()
            data = yield from c.bcast("x", nbytes=64, root=0)
            yield from c.gather(data, nbytes=64, root=0)
        return None

    run_job(env, cluster, 16, fn)


# -- the <30 s full-tree lint guard ------------------------------------------

def test_full_tree_collectives_lint_under_30s():
    """CI gates on ``python -m repro.analysis collectives src/``; the
    interprocedural pass (CFG + path enumeration + call-graph summaries
    over the whole tree) must stay interactive."""
    config = load_config(REPO / "pyproject.toml")
    t0 = time.perf_counter()
    findings = analyze_paths([str(SRC)], config)
    dt = time.perf_counter() - t0
    assert findings == [], "\n".join(f.render() for f in findings)
    assert dt < 30.0, f"full-tree collectives lint took {dt:.1f}s (>30s)"


# -- the <2% tracer-off harness overhead guard -------------------------------

def test_tracer_off_overhead_under_two_percent():
    """With no tracer subscribed, the per-collective instrumentation must
    cost no more than 2% over a build with ``_traced`` compiled out.

    The baseline arm monkeypatches ``Comm._traced`` to return the
    generator untouched — the pre-instrumentation behavior — and the
    interleaved min-of-repeats cancels warm-up and scheduler noise, so
    the residual is the true price of the shipped off path (one bus
    lookup per collective).
    """
    from repro.mpi.comm import Comm

    shipped = Comm._traced

    def _bypass(self, op, root, gen):
        return gen

    best_plain = best_instr = float("inf")
    try:
        for _ in range(7):
            Comm._traced = _bypass
            t0 = time.perf_counter()
            _job(tracer=False)
            best_plain = min(best_plain, time.perf_counter() - t0)
            Comm._traced = shipped
            t0 = time.perf_counter()
            _job(tracer=False)
            best_instr = min(best_instr, time.perf_counter() - t0)
    finally:
        Comm._traced = shipped
    assert best_instr <= best_plain * 1.02 + 1e-3, (
        f"tracer-off regression: instrumented {best_instr * 1e3:.2f} ms "
        f"vs bypassed {best_plain * 1e3:.2f} ms")


# -- informational: what --instrument collectives costs ----------------------

def test_tracer_on_throughput(benchmark):
    """Tracer-on wall time for the same job, tracked as a trend line so
    the validator's price stays known (EXPERIMENTS.md quotes it)."""
    benchmark(lambda: _job(tracer=True))


def test_tracer_on_vs_off_ratio():
    """The validator records one tuple append per top-level collective
    per rank — it must stay within 1.35x of the untraced run."""
    best_off = best_on = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        _job(tracer=False)
        best_off = min(best_off, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _job(tracer=True)
        best_on = min(best_on, time.perf_counter() - t0)
    assert best_on <= best_off * 1.35 + 1e-3, (
        f"tracer-on overhead too high: {best_on * 1e3:.2f} ms vs "
        f"{best_off * 1e3:.2f} ms")
