"""repro — a reproduction of "The Power and Challenges of Transformative I/O".

The public API in one import::

    from repro import build_world, run_job, PatternData

    world = build_world(aggregation="parallel")

    def rank_fn(ctx):
        fh = yield from world.mount.open_write(ctx.client, "/ckpt", ctx.comm)
        yield from fh.write(0, PatternData(ctx.rank, 0, 1 << 20))
        yield from world.mount.close_write(fh, ctx.comm)

    run_job(world.env, world.cluster, nprocs=16, fn=rank_fn)

Subpackages: :mod:`repro.sim` (event engine), :mod:`repro.cluster`
(platform models), :mod:`repro.pfs` (the underlying parallel file system),
:mod:`repro.mpi` / :mod:`repro.mpiio` (message passing and MPI-IO),
:mod:`repro.plfs` (the paper's middleware), :mod:`repro.formats`,
:mod:`repro.workloads`, and :mod:`repro.harness` (figure reproductions —
also a CLI: ``python -m repro.harness all``).
"""

from .cluster import CIELO, LANL64, Cluster, ClusterSpec
from .errors import ReproError
from .harness.setup import World, build_world
from .mpi import RankContext, run_job
from .mpiio import MPIFile, PlfsDriver, UfsDriver
from .pfs import PatternData, PfsConfig, Volume, gpfs, lustre, panfs
from .plfs import PlfsConfig, PlfsMount
from .sim import Engine

__version__ = "1.0.0"

__all__ = [
    "CIELO",
    "LANL64",
    "Cluster",
    "ClusterSpec",
    "ReproError",
    "World",
    "build_world",
    "RankContext",
    "run_job",
    "MPIFile",
    "PlfsDriver",
    "UfsDriver",
    "PatternData",
    "PfsConfig",
    "Volume",
    "gpfs",
    "lustre",
    "panfs",
    "PlfsConfig",
    "PlfsMount",
    "Engine",
    "__version__",
]
