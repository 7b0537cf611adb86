"""`harness diagnose` — where does the time go on each stack?

Runs one representative N-1 checkpoint+restart through direct access and
through PLFS, then prints the per-resource utilization and cache reports.
Not a paper figure; the paper's §II claims about *why* N-1 is slow (lock
serialization, shared-object contention, idle interconnect) become
visible counters here.
"""

from __future__ import annotations

from typing import List

from ...cluster import lanl64
from ...workloads import MPIIOTest, make_stack, run_workload
from ..diagnostics import cache_report, resource_report
from ..report import Table
from ..scales import Scale
from ..setup import build_world
from ..sweep import run_points

__all__ = ["diagnose", "run_diagnose_point"]


def run_diagnose_point(stack_name: str, scale: Scale) -> List[Table]:
    """Resource + cache report tables for one stack ('direct' or 'plfs')."""
    n = scale.fig2_nprocs
    wl = MPIIOTest(n, size_per_proc=scale.fig4_size_per_proc // 5,
                   transfer=scale.fig4_transfer)
    world = build_world(cluster_spec=lanl64(), aggregation="parallel")
    run_workload(world, wl, make_stack(stack_name, world), cold_read=False)
    res = resource_report(world)
    res.id = f"diagnose-{stack_name}"
    res.title = f"[{stack_name}] " + res.title
    cache = cache_report(world)
    cache.id = f"diagnose-{stack_name}-cache"
    cache.title = f"[{stack_name}] " + cache.title
    return [res, cache]


def diagnose(scale: Scale, jobs: int = 1) -> List[Table]:
    results = run_points(run_diagnose_point,
                         [(s, scale) for s in ("direct", "plfs")], jobs)
    return [t for pair in results for t in pair]
