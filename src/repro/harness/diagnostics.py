"""Bottleneck diagnostics: where did the simulated time go?

After any run, the world's resource models carry utilization counters —
MDS busy time, per-directory hot spots, OSD seeks, lock revocations,
network bytes, cache hit rates.  :func:`resource_report` assembles them
into one table so users can answer the paper's implicit question ("what
exactly is slow about N-1?") for *their* workload.

    world = build_world()
    run_workload(world, wl, direct_stack(world))
    print(render_table(resource_report(world)))
"""

from __future__ import annotations

from typing import List

from .report import Table
from .setup import World

__all__ = ["resource_report", "cache_report"]


def resource_report(world: World) -> Table:
    """Utilization and contention counters for every modeled resource."""
    env = world.env
    table = Table(
        id="diagnostics",
        title=f"Resource utilization at t={env.now:.3f}s (simulated)",
        columns=["resource", "busy_s", "utilization", "detail"],
    )
    # Storage network.
    pipe = world.cluster.storage_net.pipe
    table.add("storage pipe", pipe.busy_time, pipe.utilization(),
              f"{world.cluster.storage_net.bytes_moved / 1e9:.2f} GB moved")
    # Interconnect fabric.
    fabric = world.cluster.interconnect.fabric
    table.add("interconnect fabric", fabric.busy_time, fabric.utilization(),
              f"{world.cluster.interconnect.messages_sent} msgs, "
              f"{world.cluster.interconnect.bytes_sent / 1e9:.2f} GB")
    for vol in world.volumes:
        mds = vol.mds
        table.add(f"{vol.name} MDS", mds.server.busy_time, mds.server.utilization(),
                  f"{mds.total_ops} ops; hottest dir "
                  f"{_hottest_dir_busy(mds):.3f}s busy")
    pool = world.volume.pool
    osds = pool.osds
    busy = [o.server.busy_time for o in osds]
    table.add("OSD pool (sum)", sum(busy),
              sum(busy) / (len(osds) * env.now) if env.now else 0.0,
              f"{len(osds)} OSDs, {pool.total_bytes_moved / 1e9:.2f} GB, "
              f"{pool.total_seeks} seeks")
    table.add("OSD pool (max)", max(busy), (max(busy) / env.now) if env.now else 0.0,
              f"imbalance max/mean = {_imbalance(busy):.2f}")
    locks = world.volume.locks
    table.add("lock manager", 0.0, 0.0,
              f"{locks.revocations} revocations, {locks.grants} grants")
    return table


def _hottest_dir_busy(mds) -> float:
    busiest = 0.0
    # max() over floats is exact and order-insensitive.
    for srv in mds._dir_servers.values():  # repro: noqa[REP004] -- max() over floats is order-insensitive
        busiest = max(busiest, srv.busy_time)
    return busiest


def _imbalance(busy: List[float]) -> float:
    mean = sum(busy) / len(busy)
    return (max(busy) / mean) if mean > 0 else 0.0


def cache_report(world: World) -> Table:
    """Per-node page-cache effectiveness (aggregated over built nodes)."""
    hits = misses = evictions = resident = 0
    for node in world.cluster.nodes.built():
        pc = node.page_cache
        hits += pc.hits
        misses += pc.misses
        evictions += pc.evictions
        resident += len(pc)
    total = hits + misses
    table = Table(
        id="cache",
        title="Client page caches (all nodes)",
        columns=["metric", "value"],
    )
    table.add("block lookups", total)
    table.add("hit rate", (hits / total) if total else 0.0)
    table.add("evictions", evictions)
    table.add("resident blocks", resident)
    return table
