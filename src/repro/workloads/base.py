"""Workload framework: I/O plans, stacks, and the phase runner.

A :class:`Workload` describes *what* an application does to a file —
which (offset, length) extents each rank touches per round, shared file
or file-per-process, collective or independent — and the runner executes
it against a stack (the ADIO driver of direct PFS or of PLFS), timing the
open / write / read / close phases the way the paper reports them: phase
times are maxima over ranks, and effective bandwidth includes open and
close (footnote 2).

Content is deterministic per rank (a :class:`PatternData` stream keyed by
rank), so any reader whose plan matches the write plan can verify content
byte-exactly without the framework shipping real buffers around.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..errors import ConfigError
from ..faults.policies import RetryPolicy
from ..harness.setup import World
from ..mpi import run_job
from ..mpiio import Driver, MPIFile, PlfsDriver, UfsDriver
from ..pfs.data import PatternData
from ..sim import JobMetrics

__all__ = ["direct_stack", "plfs_stack", "make_stack", "Workload",
           "PhaseResult", "WorkloadResult", "run_workload"]

Extent = Tuple[int, int]  # (offset, length)


def direct_stack(world: World, retry: RetryPolicy = None) -> UfsDriver:
    """Direct access to the underlying parallel file system ('W/O PLFS')."""
    return UfsDriver(world.volume, retry=retry)


def plfs_stack(world: World, retry: RetryPolicy = None) -> PlfsDriver:
    """Access through the PLFS middleware's ADIO driver."""
    return PlfsDriver(world.mount, retry=retry)


_STACKS = {"direct": direct_stack, "plfs": plfs_stack}


def make_stack(name: str, world: World, retry: RetryPolicy = None) -> Driver:
    """The stack called *name* (``"direct"`` or ``"plfs"``) over *world*."""
    if name not in _STACKS:
        raise ConfigError(f"stack must be 'plfs' or 'direct', got {name!r}")
    return _STACKS[name](world, retry=retry)


class Workload:
    """Base class: subclasses define the per-rank extent plans."""

    name = "workload"
    shared_file = True          # N-1 (one shared file) vs N-N (file per rank)
    collective_write = False    # use write_at_all (two-phase I/O)
    collective_read = False
    read_matches_write = True   # restart reads exactly what this rank wrote

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise ConfigError("workload needs >= 1 process")
        self.nprocs = nprocs

    # -- identity ---------------------------------------------------------------
    def file_path(self, rank: int) -> str:
        """The logical path rank *rank* opens (shared, or per-rank for N-N)."""
        if self.shared_file:
            return f"/wl/{self.name}"
        return f"/wl/{self.name}.{rank}"

    def seed(self, rank: int) -> int:
        """Deterministic content seed for one rank's pattern stream.

        ``crc32``, not ``hash()``: string hashing is salted per process,
        and content seeds must agree between a write run and a read run
        that may live in different harness worker processes.
        """
        return zlib.crc32(f"{self.name}:{rank}".encode("utf-8")) & 0x7FFFFFFF

    # -- plans --------------------------------------------------------------------
    def write_rounds(self, rank: int) -> Iterator[List[Extent]]:
        """Rounds of extents this rank writes (a round = one collective call)."""
        raise NotImplementedError

    def read_rounds(self, rank: int) -> Iterator[List[Extent]]:
        """Rounds of extents this rank reads; defaults to the write plan."""
        return self.write_rounds(rank)

    def bytes_per_rank(self, rank: int) -> int:
        """Bytes this rank writes over the whole plan (walks every round;
        workloads with a closed form override it)."""
        return sum(ln for rnd in self.write_rounds(rank) for _, ln in rnd)

    @property
    def total_bytes(self) -> int:
        """Bytes the whole job writes."""
        return sum(self.bytes_per_rank(r) for r in range(self.nprocs))

    def describe(self) -> str:
        """One-line human description."""
        kind = "N-1" if self.shared_file else "N-N"
        return f"{self.name} ({kind}, {self.nprocs} procs)"


@dataclass
class PhaseResult:
    """Timing of one phase group (a write pass or a read pass)."""

    phase: str
    nprocs: int
    bytes_moved: int
    open_time: float
    io_time: float
    close_time: float
    wall_time: float
    verified: Optional[bool] = None

    @property
    def effective_bandwidth(self) -> float:
        """bytes / (open + io + close) — the paper's end-to-end metric."""
        return self.bytes_moved / self.wall_time if self.wall_time > 0 else 0.0


@dataclass
class WorkloadResult:
    """Write and/or read phase results of one workload run."""

    workload: str
    stack: str
    nprocs: int
    write: Optional[PhaseResult] = None
    read: Optional[PhaseResult] = None


def _phase_result(phase: str, metrics: JobMetrics, verified) -> PhaseResult:
    return PhaseResult(
        phase=phase,
        nprocs=metrics.nprocs,
        bytes_moved=metrics.bytes_total,
        open_time=metrics.phase_max.get("open", 0.0),
        io_time=metrics.phase_max.get(phase, 0.0),
        close_time=metrics.phase_max.get("close", 0.0),
        wall_time=metrics.wall_time,
        verified=verified,
    )


def _writer_fn(workload: Workload, stack: Driver):
    parent = workload.file_path(0).rpartition("/")[0]

    def fn(ctx):
        path = workload.file_path(ctx.rank)
        if ctx.rank == 0 and parent:
            yield from stack.mkdir(ctx.client, parent)
        yield from ctx.comm.barrier()
        ctx.start("open")
        f = yield from MPIFile.open(ctx, path, "w", stack,
                                    independent=not workload.shared_file)
        ctx.stop("open")
        ctx.start("write")
        seed, cursor = workload.seed(ctx.rank), 0
        for rnd in workload.write_rounds(ctx.rank):
            pieces = []
            for off, ln in rnd:
                pieces.append((off, PatternData(seed, cursor, ln)))
                cursor += ln
            if workload.collective_write:
                # Workload contract: write_rounds(rank) varies offsets
                # per rank but yields the same *round count* on every
                # rank (tests/mpi/test_trace.py runs LANL3 under a strict
                # collective tracer).
                yield from f.write_at_all(pieces)
            else:
                for off, spec in pieces:
                    yield from f.write_at(off, spec)
        ctx.stop("write")
        ctx.start("close")
        yield from f.close()
        ctx.stop("close")
        return cursor

    return fn


def _reader_fn(workload: Workload, stack: Driver, verify: bool):
    def fn(ctx):
        path = workload.file_path(ctx.rank)
        ctx.start("open")
        f = yield from MPIFile.open(ctx, path, "r", stack,
                                    independent=not workload.shared_file)
        ctx.stop("open")
        ctx.start("read")
        seed, cursor, ok = workload.seed(ctx.rank), 0, True
        for rnd in workload.read_rounds(ctx.rank):
            if workload.collective_read:
                # Same contract as the write side: per-rank offsets,
                # rank-uniform round count.
                views = yield from f.read_at_all(list(rnd))
            else:
                views = []
                for off, ln in rnd:
                    v = yield from f.read_at(off, ln)
                    views.append(v)
            if verify and workload.read_matches_write:
                for (off, ln), view in zip(rnd, views):
                    ok = ok and view.content_equal(PatternData(seed, cursor, ln))
                    cursor += ln
            else:
                cursor += sum(ln for _, ln in rnd)
        ctx.stop("read")
        ctx.start("close")
        yield from f.close()
        ctx.stop("close")
        return ok

    return fn


def run_workload(world: World, workload: Workload, stack: Driver, *,
                 do_write: bool = True, do_read: bool = True,
                 cold_read: bool = True, verify: bool = False) -> WorkloadResult:
    """Run the write pass and/or read pass of *workload* over *stack*.

    ``cold_read`` drops node page caches between the passes (a restart
    after reboot); leave it False to reproduce the §IV-C caching effects.
    """
    result = WorkloadResult(workload=workload.name, stack=stack.name,
                            nprocs=workload.nprocs)
    total = workload.total_bytes
    if do_write:
        job = run_job(world.env, world.cluster, workload.nprocs,
                      _writer_fn(workload, stack),
                      bytes_total=total,
                      name=f"{workload.name}-write")
        result.write = _phase_result("write", job.metrics, None)
    if do_read:
        if cold_read:
            world.drop_caches()
        job = run_job(world.env, world.cluster, workload.nprocs,
                      _reader_fn(workload, stack, verify),
                      bytes_total=total,
                      name=f"{workload.name}-read",
                      client_id_base=1_000_000)
        verified = all(job.results) if verify else None
        result.read = _phase_result("read", job.metrics, verified)
    return result
