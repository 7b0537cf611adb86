"""Fig. 8 — large-scale results on the Cielo model (§VI).

* (a) read bandwidth to 65,536 processes: N-N direct, N-N through PLFS,
  N-1 through PLFS (Parallel Index Read + 10 federated MDS);
* (b) N-N write-open time for PLFS-1 / PLFS-10 / PLFS-20;
* (c) N-1 write-open time for PLFS-1 vs PLFS-10 (subdir federation);
* (d) N-N open time, PLFS-10 vs direct — the paper's 17x headline at
  32,768 processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...cluster import cielo
from ...pfs import panfs_cielo
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

__all__ = ["fig8"]


def _read_bw(world, workload, stack) -> float:
    res = run_workload(world, workload, stack, cold_read=True)
    return res.read.effective_bandwidth


def run_fig8a_point(n: int, scale: Scale):
    """(N-N direct, N-N PLFS, N-1 PLFS) read bandwidth at *n* procs."""
    def wl(layout):
        return MPIIOTest(n, size_per_proc=scale.fig8_size_per_proc,
                         transfer=scale.fig8_transfer, layout=layout)

    w = build_world(cluster_spec=cielo(), pfs_cfg=panfs_cielo())
    bw_nn_direct = _read_bw(w, wl("nn"), direct_stack(w))
    w = build_world(cluster_spec=cielo(), pfs_cfg=panfs_cielo(), n_volumes=10,
                    federation="container", aggregation="parallel")
    bw_nn_plfs = _read_bw(w, wl("nn"), plfs_stack(w))
    w = build_world(cluster_spec=cielo(), pfs_cfg=panfs_cielo(), n_volumes=10,
                    federation="subdir", aggregation="parallel")
    bw_n1_plfs = _read_bw(w, wl("strided"), plfs_stack(w))
    return bw_nn_direct, bw_nn_plfs, bw_n1_plfs


def run_fig8b_point(n: int, k: int, scale: Scale) -> float:
    """N-N write-open time at *n* procs with *k* federated MDSes."""
    world = build_world(cluster_spec=cielo(), pfs_cfg=panfs_cielo(), n_volumes=k,
                        federation="container" if k > 1 else "none")
    return nn_metadata_storm(world, n, 1, "plfs").open_time


def run_fig8c_point(n: int, scale: Scale):
    """N-1 write-open time at *n* procs: (PLFS-1, PLFS-10 subdir)."""
    w1 = build_world(cluster_spec=cielo(), pfs_cfg=panfs_cielo(), n_volumes=1)
    t1 = n1_open_storm(w1, n, "plfs").open_time
    w10 = build_world(cluster_spec=cielo(), pfs_cfg=panfs_cielo(), n_volumes=10,
                      federation="subdir")
    t10 = n1_open_storm(w10, n, "plfs").open_time
    return t1, t10


def run_fig8d_point(n: int, scale: Scale) -> float:
    """N-N open time at *n* procs without PLFS (one MDS, one directory)."""
    wd = build_world(cluster_spec=cielo(), pfs_cfg=panfs_cielo())
    return nn_metadata_storm(wd, n, 1, "direct").open_time


def _nn_plfs_opens(scale: Scale, counts: List[int],
                   jobs: int) -> Dict[Tuple[int, int], float]:
    """(procs, MDS count) -> N-N PLFS write-open time, for every count."""
    grid = [(n, k) for n in scale.fig8_meta_procs for k in counts]
    return dict(zip(grid, run_points(run_fig8b_point,
                                     [(n, k, scale) for n, k in grid], jobs)))


def fig8a(scale: Scale, jobs: int = 1) -> Table:
    """Large-scale read bandwidth: N-N direct vs N-N/N-1 through PLFS."""
    table = Table(
        id="fig8a",
        title="Cielo read bandwidth [MB/s]: N-N direct vs N-N PLFS vs N-1 PLFS",
        columns=["procs", "nn_direct", "nn_plfs", "n1_plfs"],
        notes="paper: N-1 PLFS >= N-N direct except at the top count; "
              "N-N PLFS close to or above direct (ParallelIndexRead + 10 MDS)",
    )
    for n, bws in zip(scale.fig8_read_procs,
                      run_points(run_fig8a_point,
                                 [(n, scale) for n in scale.fig8_read_procs],
                                 jobs)):
        table.add(n, *[bw * 1e-6 for bw in bws])
    return table


def fig8b(scale: Scale, plfs: Dict[Tuple[int, int], float]) -> Table:
    """N-N write-open time vs federated MDS count, from the storms in
    *plfs* (run by :func:`_nn_plfs_opens`)."""
    table = Table(
        id="fig8b",
        title="Cielo N-N write-open time [s] vs MDS count",
        columns=["procs"] + [f"PLFS-{k}" for k in scale.fig8_mds_counts],
        notes="paper: PLFS-1 performs poorly; 10 MDS improves opens significantly",
    )
    for n in scale.fig8_meta_procs:
        table.add(n, *[plfs[(n, k)] for k in scale.fig8_mds_counts])
    return table


def fig8c(scale: Scale, jobs: int = 1) -> Table:
    """N-1 write-open time, PLFS-1 vs PLFS-10 (subdir federation)."""
    table = Table(
        id="fig8c",
        title="Cielo N-1 write-open time [s] vs MDS count (subdir federation)",
        columns=["procs", "PLFS-1", "PLFS-10"],
        notes="paper: flat at small scale (one container, one MDS suffices); "
              "10 MDS wins as process count grows",
    )
    for n, (t1, t10) in zip(scale.fig8_meta_procs,
                            run_points(run_fig8c_point,
                                       [(n, scale) for n in scale.fig8_meta_procs],
                                       jobs)):
        table.add(n, t1, t10)
    return table


def fig8d(scale: Scale, jobs: int = 1,
          plfs: Optional[Dict[Tuple[int, int], float]] = None) -> Table:
    """The 17x headline: direct vs PLFS-10 N-N open time.

    The PLFS-10 storm is fig8b's; *plfs* passes in fig8b's runs.
    """
    table = Table(
        id="fig8d",
        title="Cielo N-N open time [s]: PLFS-10 vs direct",
        columns=["procs", "without_plfs", "with_plfs10", "speedup"],
        notes="paper: max speedup 17x at 32,768 processes",
    )
    if plfs is None:
        plfs = _nn_plfs_opens(scale, [10], jobs)
    for n, td in zip(scale.fig8_meta_procs,
                     run_points(run_fig8d_point,
                                [(n, scale) for n in scale.fig8_meta_procs],
                                jobs)):
        tp = plfs[(n, 10)]
        table.add(n, td, tp, td / tp)
    return table


def fig8(scale: Scale, jobs: int = 1) -> List[Table]:
    """All four §VI panels; each N-N PLFS storm runs once for (b) and (d)."""
    counts = sorted(set(scale.fig8_mds_counts) | {10})
    plfs = _nn_plfs_opens(scale, counts, jobs)
    return [fig8a(scale, jobs), fig8b(scale, plfs), fig8c(scale, jobs),
            fig8d(scale, jobs, plfs)]
