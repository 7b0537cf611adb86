#!/usr/bin/env python
"""A tour of the paper's I/O kernels (§IV-D) at demo scale.

Runs each of the six kernels — Pixie3D (pnetCDF), ARAMCO (HDF5), IOR,
MADbench, LANL 1, LANL 3 (with collective buffering) — through both
stacks, verifying every byte of the restart reads, and prints the
PLFS-vs-direct effective read bandwidths side by side.

Run:  python examples/io_kernels_tour.py
"""

from repro.harness.setup import build_world
from repro.units import KB, MB, MiB, fmt_bw
from repro.workloads import (
    IOR,
    LANL1,
    LANL3,
    Aramco,
    MADbench,
    Pixie3D,
    direct_stack,
    plfs_stack,
    run_workload,
)

NPROCS = 32

KERNELS = [
    ("Pixie3D  (pnetCDF, big blocks)",
     lambda: Pixie3D(NPROCS, per_proc=16 * MiB, n_vars=4, io_size=4 * MiB)),
    ("ARAMCO   (HDF5, strong scaling)",
     lambda: Aramco(NPROCS, total_bytes=256 * MiB, chunk=1 * MiB)),
    ("IOR      (segmented, 1 MB ops)",
     lambda: IOR(NPROCS, size_per_proc=8 * MB, transfer=1 * MB)),
    ("MADbench (matrix components)",
     lambda: MADbench(NPROCS, matrix_bytes_per_rank=4 * MiB, n_components=4)),
    ("LANL 1   (strided 500 KB)",
     lambda: LANL1(NPROCS, per_proc=8 * MB, record=500 * KB)),
    ("LANL 3   (1 KB records + collective buffering)",
     lambda: LANL3(NPROCS, total_bytes=256 * MiB, round_bytes=32 * MiB)),
]


def main():
    print(f"{NPROCS} ranks; every read verified byte-for-byte\n")
    print(f"{'kernel':<48} {'direct read':>14} {'PLFS read':>14} {'speedup':>8}")
    for label, factory in KERNELS:
        wl = factory()
        wd = build_world(n_nodes=16, cores=4)
        rd = run_workload(wd, wl, direct_stack(wd), verify=True)
        wp = build_world(n_nodes=16, cores=4, aggregation="parallel")
        rp = run_workload(wp, wl, plfs_stack(wp), verify=True)
        assert rd.read.verified and rp.read.verified
        bw_d = rd.read.effective_bandwidth
        bw_p = rp.read.effective_bandwidth
        print(f"{label:<48} {fmt_bw(bw_d):>14} {fmt_bw(bw_p):>14} "
              f"{bw_p / bw_d:>7.2f}x")
    print("\n(§IV-D: PLFS wins where records are small/strided; direct keeps up "
          "on large\naligned blocks; ARAMCO's strong scaling erodes the PLFS "
          "edge as N grows.)")


if __name__ == "__main__":
    main()
