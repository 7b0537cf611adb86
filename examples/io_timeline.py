#!/usr/bin/env python
"""I/O timelines: watch the storage pipe breathe during a checkpoint.

Attaches a bandwidth probe to the storage network, runs a checkpoint
through PLFS after a compute phase, and charts the delivered-throughput
timeline — the idle/burst rhythm that storage papers draw, rendered in
your terminal.

Run:  python examples/io_timeline.py
"""

from repro.harness.plots import ascii_chart
from repro.harness.setup import build_world
from repro.mpi import run_job
from repro.pfs.data import PatternData
from repro.sim.probes import BandwidthProbe
from repro.units import KB, MB

NPROCS = 32
PER_PROC = 8 * MB
RECORD = 200 * KB


def checkpoint(world, mount, compute_first=0.0):
    def fn(ctx):
        if compute_first:
            yield ctx.env.timeout(compute_first)
        fh = yield from mount.open_write(ctx.client, "/ckpt", ctx.comm)
        written = 0
        while written < PER_PROC:
            n = min(RECORD, PER_PROC - written)
            off = ctx.rank * RECORD + (written // RECORD) * NPROCS * RECORD
            yield from fh.write(off, PatternData(ctx.rank, written, n))
            written += n
        yield from mount.close_write(fh, ctx.comm)

    return run_job(world.env, world.cluster, NPROCS, fn)


def chart(probe, title):
    series = probe.series()
    xs = [t for t, _ in series]
    ys = [r / 1e6 for _, r in series]  # MB/s
    print(ascii_chart(xs, [ys], ["pipe MB/s"], title=title, height=10))
    print()


def main():
    # Plain PLFS: the pipe saturates for the whole checkpoint.
    world = build_world(n_nodes=8, cores=4, aggregation="parallel")
    probe = BandwidthProbe(world.env, world.cluster.storage_net.pipe, period=0.05)
    checkpoint(world, world.mount, compute_first=0.3)
    world.env.run()
    chart(probe, "PLFS checkpoint: storage-pipe throughput over time")


if __name__ == "__main__":
    main()
