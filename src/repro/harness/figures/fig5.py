"""Fig. 5 — read performance across the six I/O kernels (§IV-D).

For each kernel the paper compares the effective read bandwidth of PLFS
(Parallel Index Read, the chosen default) against direct access to the
underlying parallel file system, sweeping process count.  Reads are cold
(a restart job on a different set of clients), writes happen first
through the same stack under test.
"""

from __future__ import annotations

from typing import List

from ...cluster import lanl64
from ...units import KB, MB, MiB
from ...workloads import (
    IOR,
    LANL1,
    LANL3,
    Aramco,
    MADbench,
    Pixie3D,
    Workload,
    direct_stack,
    plfs_stack,
    run_workload,
)
from ..report import Table
from ..scales import Scale
from ..setup import build_world
from ..sweep import run_points

__all__ = ["fig5", "KERNELS", "run_fig5_point"]


def _kernels(scale: Scale):
    """(panel id, label, factory, paper-shape note) per kernel."""
    s = scale.fig5_scale
    # Pixie3D per-proc (paper used 1 GB); keep it divisible by its 8 vars.
    big = max(8, (int(s * 64 * MiB) // 8) * 8)
    total_strong = int(s * 512 * MiB)  # ARAMCO / LANL3 fixed totals
    return [
        ("fig5a", "pixie3d",
         lambda n: Pixie3D(n, per_proc=big, n_vars=8, io_size=8 * MiB),
         "direct wins small, PLFS scales better at large counts"),
        ("fig5b", "aramco",
         lambda n: Aramco(n, total_bytes=total_strong, chunk=1 * MiB),
         "PLFS up to ~8x at low counts; direct wins at scale (strong scaling: index time dominates)"),
        ("fig5c", "ior",
         lambda n: IOR(n, size_per_proc=int(s * 12 * MB), transfer=1 * MB),
         "PLFS wins at all counts, up to ~4.5x"),
        ("fig5d", "madbench",
         lambda n: MADbench(n, matrix_bytes_per_rank=int(s * 8 * MiB),
                            n_components=8, io_size=4 * MiB),
         "PLFS wins"),
        ("fig5e", "lanl1",
         lambda n: LANL1(n, per_proc=int(s * 8 * MB), record=500 * KB),
         "PLFS wins at all counts; paper max 10x at 384 procs"),
        ("fig5f", "lanl3",
         lambda n: LANL3(n, total_bytes=total_strong, round_bytes=32 * MiB),
         "collective buffering: near parity, PLFS edges ahead at the largest scale"),
    ]


def _read_bw(world, workload: Workload, stack) -> float:
    res = run_workload(world, workload, stack, cold_read=True)
    return res.read.effective_bandwidth


def run_fig5_point(pid: str, n: int, scale: Scale):
    """One (kernel, process count) cell: (direct bw, PLFS bw) in bytes/s."""
    _, _, factory, _ = next(k for k in _kernels(scale) if k[0] == pid)
    wl = factory(n)
    w_direct = build_world(cluster_spec=lanl64())
    bw_direct = _read_bw(w_direct, wl, direct_stack(w_direct))
    w_plfs = build_world(cluster_spec=lanl64(), aggregation="parallel")
    bw_plfs = _read_bw(w_plfs, wl, plfs_stack(w_plfs))
    return bw_direct, bw_plfs


def fig5(scale: Scale, jobs: int = 1) -> List[Table]:
    kernels = _kernels(scale)
    grid = [(pid, n) for pid, *_ in kernels for n in scale.fig5_procs]
    results = dict(zip(grid, run_points(run_fig5_point,
                                        [(pid, n, scale) for pid, n in grid],
                                        jobs)))
    tables: List[Table] = []
    for pid, label, _factory, note in kernels:
        table = Table(
            id=pid,
            title=f"{label}: effective read bandwidth [MB/s], PLFS vs direct",
            columns=["procs", "direct_MB_s", "plfs_MB_s", "plfs_speedup"],
            notes=f"paper: {note}",
        )
        for n in scale.fig5_procs:
            bw_direct, bw_plfs = results[(pid, n)]
            table.add(n, bw_direct * 1e-6, bw_plfs * 1e-6, bw_plfs / bw_direct)
        tables.append(table)
    return tables


KERNELS = _kernels
