"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper, but sweeps over the knobs whose settings the
paper justifies in prose: the Index Flatten buffering threshold (§IV-A),
the Parallel Index Read group width (§IV-B), the backing file system's
lock granularity (the §II mechanism PLFS sidesteps), and subdir- vs
container-spreading federation (§V).
"""

from __future__ import annotations

from typing import List

from ...cluster import lanl64
from ...pfs import panfs
from ...pfs.extents import RECORD_BYTES
from ...plfs import PlfsConfig
from ...plfs.container import parse_log_name
from ...units import KB, KiB, MB
from ...workloads import (
    MPIIOTest,
    direct_stack,
    n1_open_storm,
    nn_metadata_storm,
    plfs_stack,
    run_workload,
)
from ..report import Table
from ..scales import Scale
from ..setup import build_world
from ..sweep import run_points

__all__ = ["ablate_threshold", "ablate_groups", "ablate_locks",
           "ablate_federation", "ablations"]


def _workload(n, scale: Scale):
    return MPIIOTest(n, size_per_proc=scale.fig4_size_per_proc,
                     transfer=scale.fig4_transfer, layout="strided")


def run_threshold_point(threshold: int, scale: Scale):
    """One flatten-threshold cell: (flattened?, write close, read open)."""
    n = max(scale.fig4_streams)
    world = build_world(cluster_spec=lanl64(),
                        plfs_cfg=PlfsConfig(aggregation="flatten",
                                            flatten_threshold=threshold))
    res = run_workload(world, _workload(n, scale), plfs_stack(world),
                       cold_read=False)
    layout = world.mount.layout(_workload(n, scale).file_path(0))
    flattened = layout.home_volume.ns.exists(layout.global_index_path)
    return flattened, res.write.close_time, res.read.open_time


def ablate_threshold(scale: Scale, jobs: int = 1) -> Table:
    """Index Flatten threshold: too low and flatten never engages."""
    n = max(scale.fig4_streams)
    per_writer_index = (scale.fig4_size_per_proc // scale.fig4_transfer) * RECORD_BYTES
    table = Table(
        id="ablate-threshold",
        title=f"Index Flatten threshold sweep ({n} streams; per-writer index "
              f"= {per_writer_index} B)",
        columns=["threshold_B", "flattened", "write_close_s", "read_open_s"],
        notes="§IV-A: flatten engages only when every writer's buffered index fits",
    )
    thresholds = [per_writer_index // 4, per_writer_index,
                  4 * per_writer_index, 64 * per_writer_index]
    for threshold, (flattened, close_s, open_s) in zip(
            thresholds, run_points(run_threshold_point,
                                   [(t, scale) for t in thresholds], jobs)):
        table.add(threshold, flattened, close_s, open_s)
    return table


def run_group_point(g: int, scale: Scale) -> float:
    """Read-open time with Parallel Index Read groups of width *g*."""
    n = max(scale.fig4_streams)
    world = build_world(cluster_spec=lanl64(),
                        plfs_cfg=PlfsConfig(aggregation="parallel",
                                            parallel_group_size=g))
    res = run_workload(world, _workload(n, scale), plfs_stack(world),
                       cold_read=False)
    return res.read.open_time


def ablate_groups(scale: Scale, jobs: int = 1) -> Table:
    """Parallel Index Read group width vs read-open time."""
    n = max(scale.fig4_streams)
    table = Table(
        id="ablate-groups",
        title=f"Parallel Index Read group size sweep ({n} streams)",
        columns=["group_size", "read_open_s"],
        notes="§IV-B: two-level hierarchy; sqrt(N)-ish groups balance the levels",
    )
    sizes = sorted({2, max(2, int(round(n ** 0.5)) // 2), int(round(n ** 0.5)),
                    min(n, 4 * int(round(n ** 0.5))), n})
    for g, open_s in zip(sizes, run_points(run_group_point,
                                           [(g, scale) for g in sizes], jobs)):
        table.add(g, open_s)
    return table


def run_lock_point(block: int, scale: Scale) -> float:
    """Direct N-1 write bandwidth with lock blocks of *block* bytes."""
    n = scale.fig2_nprocs
    wl = MPIIOTest(n, size_per_proc=2 * MB, transfer=47 * KB, layout="strided")
    cfg = panfs(lock_block=block, full_stripe=0)
    world = build_world(cluster_spec=lanl64(), pfs_cfg=cfg)
    res = run_workload(world, wl, direct_stack(world), do_read=False)
    return res.write.effective_bandwidth


def ablate_locks(scale: Scale, jobs: int = 1) -> Table:
    """Backing-FS lock granularity vs direct N-1 write bandwidth."""
    n = scale.fig2_nprocs
    table = Table(
        id="ablate-locks",
        title=f"Lock-block granularity vs direct N-1 write bandwidth ({n} procs, 47 KB records)",
        columns=["lock_block_B", "direct_write_MB_s"],
        notes="§II: coarser write serialization granularity = worse false sharing",
    )
    blocks = [0, 16 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB]
    for block, bw in zip(blocks, run_points(run_lock_point,
                                            [(b, scale) for b in blocks], jobs)):
        table.add(block, bw * 1e-6)
    return table


def run_federation_point(mode: str, scale: Scale):
    """(N-N open, N-1 open) under federation *mode*."""
    n = scale.fig7_nprocs
    k = max(scale.fig7_mds_counts)
    world = build_world(cluster_spec=lanl64(), n_volumes=(1 if mode == "none" else k),
                        federation=mode)
    nn = nn_metadata_storm(world, n, 4, "plfs", dirname="/abl-nn")
    n1 = n1_open_storm(world, n, "plfs", path="/abl-n1/shared")
    return nn.open_time, n1.open_time


def ablate_federation(scale: Scale, jobs: int = 1) -> Table:
    """Container- vs subdir-spreading under N-N and N-1 metadata storms."""
    n = scale.fig7_nprocs
    k = max(scale.fig7_mds_counts)
    table = Table(
        id="ablate-federation",
        title=f"Federation mode vs metadata times ({n} procs, {k} MDS)",
        columns=["federation", "nn_open_s", "n1_open_s"],
        notes="§V: container spreading fixes app N-N; subdir spreading fixes "
              "the physical N-N of transformed N-1",
    )
    modes = ["none", "container", "subdir"]
    for mode, (nn_open, n1_open) in zip(
            modes, run_points(run_federation_point,
                              [(m, scale) for m in modes], jobs)):
        table.add(mode, nn_open, n1_open)
    return table


def run_index_merge_point(layout: str, merge: bool, scale: Scale):
    """One (layout, merge) cell: (on-media index records, read-open time)."""
    n = scale.fig2_nprocs
    world = build_world(cluster_spec=lanl64(),
                        plfs_cfg=PlfsConfig(aggregation="parallel",
                                            index_merge=merge))
    wl = MPIIOTest(n, size_per_proc=scale.fig4_size_per_proc,
                   transfer=scale.fig4_transfer, layout=layout)
    res = run_workload(world, wl, plfs_stack(world), cold_read=False)
    return _count_index_records(world, wl), res.read.open_time


def ablate_index_merge(scale: Scale, jobs: int = 1) -> Table:
    """Contiguous index-record merging: index weight and read-open cost.

    Segmented writers (IOR-style) coalesce to one record each when merging
    is on; strided checkpoint writers cannot coalesce at all, so the knob
    is free for them — which is why PLFS enables it unconditionally.
    """
    n = scale.fig2_nprocs
    table = Table(
        id="ablate-index-merge",
        title=f"Index-record merging ({n} procs, segmented vs strided)",
        columns=["layout", "merge", "index_records", "read_open_s"],
        notes="merging collapses sequential runs; strided records never merge",
    )
    grid = [(layout, merge) for layout in ("segmented", "strided")
            for merge in (False, True)]
    for (layout, merge), (records, open_s) in zip(
            grid, run_points(run_index_merge_point,
                             [(lo, m, scale) for lo, m in grid], jobs)):
        table.add(layout, merge, records, open_s)
    return table


def _count_index_records(world, workload) -> int:
    """Total on-media index records of the workload's container."""
    layout = world.mount.layout(workload.file_path(0))
    total = 0
    for s in range(layout.cfg.n_subdirs):
        vol = layout.subdir_volume(s)
        path = layout.subdir_path(s)
        if not vol.ns.exists(path):
            continue
        for name in vol.ns.readdir(path):
            parsed = parse_log_name(name)
            if parsed is not None and parsed[0] == "index":
                node = vol.ns.resolve(f"{path}/{name}")
                total += node.data.size // RECORD_BYTES
    return total


def ablations(scale: Scale, jobs: int = 1) -> List[Table]:
    return [ablate_threshold(scale, jobs), ablate_groups(scale, jobs),
            ablate_locks(scale, jobs), ablate_federation(scale, jobs),
            ablate_index_merge(scale, jobs)]
