"""Fig. 2 — summary of N-1 write speedups across applications.

The paper's Fig. 2 bar chart shows how much faster the application suite
writes N-1 checkpoints through PLFS than directly to the parallel file
system (speedups ranging up to the 150x headline).  Section III credits
the win to decoupling: no shared-object serialization on the backing
store.  We also regenerate the §I/§III portability claim as a companion
table: the same transformation wins on all three modeled file systems.
"""

from __future__ import annotations

from typing import List

from typing import Tuple

from ...cluster import lanl64
from ...pfs import gpfs, lustre, panfs
from ...workloads import app_suite, direct_stack, plfs_stack, run_workload
from ..report import Table
from ..scales import Scale
from ..setup import build_world
from ..sweep import run_points

__all__ = ["fig2", "run_fig2_app_point", "run_fig2_fs_point"]

_FS_PRESETS = {"panfs": panfs, "lustre": lustre, "gpfs": gpfs}


def _write_time(world, workload, stack) -> float:
    res = run_workload(world, workload, stack, do_read=False)
    return res.write.wall_time


def run_fig2_app_point(label: str, scale: Scale) -> Tuple[float, float]:
    """One application bar: (direct write time, PLFS write time)."""
    spec = next(s for s in app_suite(scale.fig2_app_scale) if s.label == label)
    n = scale.fig2_nprocs
    workload = spec.make(n)
    w_direct = build_world(cluster_spec=lanl64())
    t_direct = _write_time(w_direct, workload, direct_stack(w_direct))
    w_plfs = build_world(cluster_spec=lanl64(), federation="none")
    t_plfs = _write_time(w_plfs, workload, plfs_stack(w_plfs))
    return t_direct, t_plfs


def run_fig2_fs_point(fs: str, scale: Scale) -> Tuple[float, float]:
    """One file-system row: (direct write time, PLFS write time), LANL 2."""
    cfg = _FS_PRESETS[fs]()
    n = scale.fig2_nprocs
    lanl2 = next(s for s in app_suite(scale.fig2_app_scale) if s.label == "LANL 2")
    workload = lanl2.make(n)
    w_direct = build_world(cluster_spec=lanl64(), pfs_cfg=cfg)
    t_direct = _write_time(w_direct, workload, direct_stack(w_direct))
    w_plfs = build_world(cluster_spec=lanl64(), pfs_cfg=cfg)
    t_plfs = _write_time(w_plfs, workload, plfs_stack(w_plfs))
    return t_direct, t_plfs


def fig2(scale: Scale, jobs: int = 1) -> List[Table]:
    n = scale.fig2_nprocs
    table = Table(
        id="fig2",
        title=f"N-1 write speedup of PLFS per application ({n} procs, PanFS-like)",
        columns=["app", "direct_write_s", "plfs_write_s", "speedup"],
        notes="paper: speedups between ~10x and ~150x across the suite",
    )
    labels = [spec.label for spec in app_suite(scale.fig2_app_scale)]
    for label, (t_direct, t_plfs) in zip(
            labels, run_points(run_fig2_app_point,
                               [(lb, scale) for lb in labels], jobs)):
        table.add(label, t_direct, t_plfs, t_direct / t_plfs)

    porta = Table(
        id="fig2-portability",
        title=f"Same transformation across the three file systems ({n} procs, LANL 2 pattern)",
        columns=["file_system", "direct_write_s", "plfs_write_s", "speedup"],
        notes="§III: all three major parallel file systems serialize N-1; PLFS wins on each",
    )
    for fs, (t_direct, t_plfs) in zip(
            _FS_PRESETS, run_points(run_fig2_fs_point,
                                    [(fs, scale) for fs in _FS_PRESETS], jobs)):
        porta.add(_FS_PRESETS[fs]().name, t_direct, t_plfs, t_direct / t_plfs)
    return [table, porta]
