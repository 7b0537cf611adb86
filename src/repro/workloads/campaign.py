"""Checkpoint/restart campaigns: the paper's motivating workload, end to end.

§I motivates everything: "long running applications ... protect themselves
from inevitable node failures by periodically writing out checkpoints",
and bigger machines fail more often while needing bigger checkpoints.
This module closes the loop — it runs a whole campaign (compute,
checkpoint, crash, restart) against any I/O stack and measures the
*useful-work efficiency* the storage system actually delivers:

* :func:`daly_interval` — the Young/Daly optimal checkpoint interval for
  a given checkpoint cost and platform MTBF;
* :class:`Campaign` — failure-injected execution: compute phases are
  interrupted by exponentially-distributed failures; every failure rolls
  back to the last completed checkpoint and pays a restart read.

Faster checkpoints (PLFS, burst buffers) permit shorter intervals, which
lose less work per failure — the quantitative version of the paper's
argument for transformative I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..faults.plan import FaultPlan
from ..harness.setup import World
from ..mpi import run_job
from ..mpiio import Driver, MPIFile
from ..pfs.data import PatternData

__all__ = ["daly_interval", "CampaignResult", "Campaign"]


def daly_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Daly's higher-order optimal checkpoint interval.

    ``sqrt(2 * C * M) * (1 + ...)`` for checkpoint cost ``C`` and platform
    MTBF ``M``; falls back to Young's first-order form when C << M and is
    clamped to M when C is enormous.
    """
    if checkpoint_cost <= 0 or mtbf <= 0:
        raise ConfigError("checkpoint cost and MTBF must be positive")
    if checkpoint_cost >= 2 * mtbf:
        return mtbf
    t = math.sqrt(2 * checkpoint_cost * mtbf)
    # Daly's correction terms.
    return t * (1 + math.sqrt(checkpoint_cost / (2 * mtbf)) / 3
                + (checkpoint_cost / (2 * mtbf)) / 9) - checkpoint_cost


@dataclass
class CampaignResult:
    """Outcome of one simulated campaign."""

    stack: str
    work_target: float           # compute seconds the app needed
    wall_time: float             # simulated seconds the campaign took
    n_checkpoints: int = 0
    n_failures: int = 0
    checkpoint_time: float = 0.0
    restart_time: float = 0.0
    lost_work: float = 0.0

    @property
    def efficiency(self) -> float:
        """Useful compute divided by total wall time."""
        return self.work_target / self.wall_time if self.wall_time > 0 else 0.0


class Campaign:
    """A failure-injected compute/checkpoint/restart campaign."""

    def __init__(self, world: World, stack: Driver, *, nprocs: int,
                 per_proc_bytes: int, record_bytes: int,
                 work_target: float, interval: float, mtbf: float,
                 seed: int = 0, plan: FaultPlan = None, injector=None):
        if min(nprocs, per_proc_bytes, record_bytes) < 1:
            raise ConfigError("campaign sizes must be positive")
        if min(work_target, interval, mtbf) <= 0:
            raise ConfigError("campaign times must be positive")
        self.world = world
        self.stack = stack
        self.nprocs = nprocs
        self.per_proc = per_proc_bytes
        self.record = record_bytes
        self.work_target = work_target
        self.interval = interval
        self.mtbf = mtbf
        # The compute-failure clock always derives from a FaultPlan — an
        # empty plan with this seed when none is given — so every stochastic
        # draw in a campaign flows through one seeded, process-stable RNG.
        self.plan = plan if plan is not None else FaultPlan((), seed=seed)
        self.injector = injector
        self._clock = self.plan.failure_clock(mtbf)

    # -- fault-plan synchronization ------------------------------------------
    def _sync_env(self, wall: float) -> None:
        """Map campaign wall time onto the engine clock and arm faults.

        Component faults are scheduled in campaign wall coordinates; before
        each I/O job the engine clock is fast-forwarded to the campaign
        wall (settling any faults due earlier, recoveries included), then
        the next checkpoint interval's worth of faults is armed so they
        can strike while the job is in flight.  Without an injector this
        is a no-op and the engine clock is untouched — fault-free
        campaigns stay bit-identical to the pre-fault implementation.
        """
        if self.injector is None:
            return
        env = self.world.env
        self.injector.arm_until(wall)
        if env.now < wall:
            env.schedule_at(wall)
            env.run()
        self.injector.arm_until(wall + self.interval)

    # -- I/O jobs ------------------------------------------------------------
    def _checkpoint(self, version: int) -> float:
        world, stack = self.world, self.stack

        def fn(ctx):
            if ctx.rank == 0:
                yield from stack.mkdir(ctx.client, "/campaign")
            yield from ctx.comm.barrier()
            f = yield from MPIFile.open(ctx, f"/campaign/ckpt.{version}", "w",
                                        stack)
            written = 0
            while written < self.per_proc:
                n = min(self.record, self.per_proc - written)
                off = ctx.rank * self.record + (written // self.record) * self.nprocs * self.record
                yield from f.write_at(off, PatternData(version * self.nprocs + ctx.rank,
                                                       written, n))
                written += n
            yield from f.close()

        job = run_job(world.env, world.cluster, self.nprocs, fn,
                      name=f"ckpt{version}", client_id_base=version * self.nprocs)
        return job.duration

    def _restart(self, version: int, attempt: int) -> float:
        world, stack = self.world, self.stack
        world.drop_caches()

        def fn(ctx):
            f = yield from MPIFile.open(ctx, f"/campaign/ckpt.{version}", "r",
                                        stack)
            got = 0
            while got < self.per_proc:
                n = min(self.record, self.per_proc - got)
                off = ctx.rank * self.record + (got // self.record) * self.nprocs * self.record
                yield from f.read_at(off, n)
                got += n
            yield from f.close()

        job = run_job(world.env, world.cluster, self.nprocs, fn,
                      name=f"restart{attempt}",
                      client_id_base=1_000_000 + attempt * self.nprocs)
        return job.duration

    # -- the campaign loop ---------------------------------------------------
    def run(self) -> CampaignResult:
        """Run to completion; failures arrive Exp(MTBF) in wall time."""
        result = CampaignResult(stack=self.stack.name,
                                work_target=self.work_target, wall_time=0.0)
        done_work = 0.0
        committed_work = 0.0     # work protected by the last checkpoint
        last_version: Optional[int] = None
        next_failure = self._clock.next_failure(0.0)
        version = 0
        wall = 0.0

        def advance(dt: float) -> bool:
            """Advance wall time; True if a failure strikes during dt."""
            nonlocal wall, next_failure
            if wall + dt >= next_failure:
                wall = next_failure
                next_failure = self._clock.next_failure(wall)
                return True
            wall += dt
            return False

        while done_work < self.work_target:
            # Compute until the next checkpoint (or completion).
            segment = min(self.interval, self.work_target - done_work)
            seg_start = wall
            if advance(segment):
                result.n_failures += 1
                # Unprotected full segments plus the partial one in flight.
                result.lost_work += (done_work - committed_work) + (wall - seg_start)
                done_work = committed_work
                if last_version is not None:
                    self._sync_env(wall)
                    t = self._restart(last_version, result.n_failures)
                    result.restart_time += t
                    wall += t
                continue
            done_work += segment
            if done_work >= self.work_target:
                break
            # Checkpoint.  A failure mid-checkpoint invalidates it.
            self._sync_env(wall)
            t = self._checkpoint(version)
            result.n_checkpoints += 1
            result.checkpoint_time += t
            if advance(t):
                result.n_failures += 1
                result.lost_work += done_work - committed_work
                done_work = committed_work
                if last_version is not None:
                    self._sync_env(wall)
                    tr = self._restart(last_version, result.n_failures)
                    result.restart_time += tr
                    wall += tr
                continue
            last_version = version
            committed_work = done_work
            version += 1
        result.wall_time = wall
        return result

