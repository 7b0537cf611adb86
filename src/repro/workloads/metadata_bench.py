"""Metadata benchmarks (§V, §VI): N-N create storms and N-1 open storms.

Fig. 7 / Fig. 8b measure the open and close time of a simulated large N-N
job — every process creates/opens multiple files — with and without PLFS,
across metadata-server counts.  With PLFS every file is a container, so
an open is a container creation (the burden) spread over federated
volumes (the win).  Fig. 8c measures the N-1 flavour: all processes open
one shared PLFS file for write.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..harness.setup import World
from ..mpi import run_job
from .base import make_stack

__all__ = ["MetadataTimes", "nn_metadata_storm", "n1_open_storm"]


@dataclass
class MetadataTimes:
    """Max-over-ranks open and close phase times of one metadata job."""

    stack: str
    nprocs: int
    files_per_proc: int
    open_time: float
    close_time: float


def nn_metadata_storm(world: World, nprocs: int, files_per_proc: int,
                      stack: str, dirname: str = "/meta") -> MetadataTimes:
    """Every rank creates, then closes, ``files_per_proc`` private files.

    ``stack="plfs"`` goes through the mount (container per file, spread by
    the configured federation); ``stack="direct"`` creates plain files in
    one shared directory of volume 0 — the single-MDS, single-directory
    baseline the paper compares against.
    """
    driver = make_stack(stack, world)

    def fn(ctx):
        if ctx.rank == 0:
            yield from driver.mkdir(ctx.client, dirname)
        yield from ctx.comm.barrier()
        paths = [f"{dirname}/f.{ctx.client.client_id}.{i}"
                 for i in range(files_per_proc)]
        handles = []
        ctx.start("open")
        for p in paths:
            h = yield from driver.open(ctx.client, None, p, "w")
            handles.append(h)
        ctx.stop("open")
        ctx.start("close")
        for h in handles:
            yield from driver.close(h, None)
        ctx.stop("close")

    job = run_job(world.env, world.cluster, nprocs, fn, name=f"nn-meta-{stack}")
    return MetadataTimes(
        stack=stack, nprocs=nprocs, files_per_proc=files_per_proc,
        open_time=job.metrics.phase_max.get("open", 0.0),
        close_time=job.metrics.phase_max.get("close", 0.0),
    )


def n1_open_storm(world: World, nprocs: int, stack: str,
                  path: str = "/meta-n1/shared") -> MetadataTimes:
    """All ranks open ONE shared file for write (Fig. 8c), then close it."""
    driver = make_stack(stack, world)
    parent = path.rpartition("/")[0]

    def fn(ctx):
        if ctx.rank == 0 and parent:
            yield from driver.mkdir(ctx.client, parent)
        yield from ctx.comm.barrier()
        ctx.start("open")
        h = yield from driver.open(ctx.client, ctx.comm, path, "w")
        yield from ctx.comm.barrier()  # open time = until the whole job is open
        ctx.stop("open")
        ctx.start("close")
        yield from driver.close(h, ctx.comm)
        ctx.stop("close")

    job = run_job(world.env, world.cluster, nprocs, fn, name=f"n1-open-{stack}")
    return MetadataTimes(
        stack=stack, nprocs=nprocs, files_per_proc=1,
        open_time=job.metrics.phase_max.get("open", 0.0),
        close_time=job.metrics.phase_max.get("close", 0.0),
    )
