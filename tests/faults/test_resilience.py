"""Client-level resilience: jobs survive injected faults, deterministically.

These are the end-to-end guarantees the fault subsystem makes: retried
I/O round-trips byte-identically through a fault window on both stacks,
unreachable index logs degrade to :class:`PartialViewError` instead of a
hang, and a no-fault plan leaves fault-free results bit-identical.
"""

import pytest

from repro.errors import PartialViewError, StorageUnavailable
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.policies import RetryPolicy
from repro.mpi import run_job
from repro.mpiio import MPIFile
from repro.pfs import PfsConfig
from repro.pfs.data import PatternData
from repro.workloads.base import direct_stack, plfs_stack
from repro.workloads.campaign import Campaign
from tests.conftest import make_world

KB = 1000


def _policy(plan, stream=0):
    return RetryPolicy(max_retries=12, base_delay=2e-3, multiplier=2.0,
                       max_delay=0.5, jitter=0.5, deadline=60.0,
                       rng=plan.rng("retry-jitter", stream))


def _ckpt_roundtrip(world, stack, nprocs=4, per=40 * KB, rec=10 * KB):
    """Write a strided N-1 checkpoint through MPI-IO, read it back, verify."""

    def writer(ctx):
        if ctx.rank == 0:
            yield from stack.mkdir(ctx.client, "/res")
        yield from ctx.comm.barrier()
        f = yield from MPIFile.open(ctx, "/res/ckpt", "w", stack)
        written = 0
        while written < per:
            n = min(rec, per - written)
            off = ctx.rank * rec + (written // rec) * nprocs * rec
            yield from f.write_at(off, PatternData(ctx.rank, written, n))
            written += n
        yield from f.close()

    def reader(ctx):
        f = yield from MPIFile.open(ctx, "/res/ckpt", "r", stack)
        ok = True
        got = 0
        while got < per:
            n = min(rec, per - got)
            off = ctx.rank * rec + (got // rec) * nprocs * rec
            view = yield from f.read_at(off, n)
            ok = ok and view.content_equal(PatternData(ctx.rank, got, n))
            got += n
        yield from f.close()
        return ok

    wjob = run_job(world.env, world.cluster, nprocs, writer)
    world.drop_caches()
    rjob = run_job(world.env, world.cluster, nprocs, reader,
                   client_id_base=1000)
    assert rjob.results == [True] * nprocs
    return wjob.duration, rjob.duration


class TestFaultedRoundTrip:
    """An OSD outage inside the job window: clients retry, bytes survive."""

    PLAN = FaultPlan([FaultEvent(0.002, "osd_outage", target=0,
                                 duration=0.05)], seed=21)

    def _run(self, stack_name):
        # One OSD, so the outage is guaranteed to intercept the job's I/O.
        world = make_world(pfs_cfg=PfsConfig(n_osds=1, stripe_width=1))
        plan = self.PLAN
        FaultInjector(world, plan).arm()
        retry = _policy(plan)
        stack = (plfs_stack if stack_name == "plfs" else direct_stack)(
            world, retry=retry)
        durations = _ckpt_roundtrip(world, stack)
        return durations, retry.retries

    @pytest.mark.parametrize("stack_name", ["plfs", "direct"])
    def test_outage_absorbed_and_content_intact(self, stack_name):
        _, retries = self._run(stack_name)
        assert retries > 0  # the fault genuinely intercepted I/O

    @pytest.mark.parametrize("stack_name", ["plfs", "direct"])
    def test_faulted_run_replays_bit_identically(self, stack_name):
        assert self._run(stack_name) == self._run(stack_name)


def _small_retry():
    return RetryPolicy(max_retries=1, base_delay=1e-3, max_delay=1e-2,
                       jitter=0.0, deadline=1.0,
                       rng=FaultPlan((), seed=4).rng("retry-jitter"))


def _read_degraded(world, retry):
    def reader(ctx):
        yield from world.mount.open_read(ctx.client, "/f", None, retry=retry)

    return run_job(world.env, world.cluster, 1, reader, client_id_base=9000)


class TestPartialView:
    def _write(self, world, nprocs, rec=5 * KB):
        def writer(ctx):
            fh = yield from world.mount.open_write(ctx.client, "/f", ctx.comm)
            yield from fh.write(ctx.rank * rec, PatternData(ctx.rank, 0, rec))
            yield from world.mount.close_write(fh, ctx.comm)

        run_job(world.env, world.cluster, nprocs, writer)
        world.drop_caches()

    def test_unreachable_index_batches_name_missing_writers(self):
        """Enumeration works (MDS is fine) but every index-log read fails:
        the error names exactly the writers whose logs were unreachable."""
        world = make_world()
        self._write(world, nprocs=4)
        for osd in world.volume.pool.osds:
            osd.fail()
        with pytest.raises(PartialViewError) as exc:
            _read_degraded(world, _small_retry())
        assert exc.value.missing_writers == (0, 1, 2, 3)
        assert not exc.value.missing_subdirs

    def test_unreachable_subdir_volume_reported(self):
        """A whole subdir volume whose MDS stays down (no failover) cannot
        even be enumerated; the reader degrades instead of hanging."""
        world = make_world(n_volumes=3, federation="subdir", n_nodes=4,
                           cores=2)
        self._write(world, nprocs=8)
        layout = world.mount.layout("/f")
        victim = next(v for v in world.volumes if v is not layout.home_volume)
        victim.mds.crash()
        with pytest.raises(PartialViewError) as exc:
            _read_degraded(world, _small_retry())
        assert exc.value.missing_subdirs
        subdirs = {layout.subdir_for_writer(n) for n in range(4)
                   if layout.subdir_volume(layout.subdir_for_writer(n)) is victim}
        assert set(exc.value.missing_subdirs) == subdirs

    def test_without_retry_the_storage_error_propagates(self):
        """Skip-and-report is the retry policy's: an independent open with
        no policy fails on the first unreachable batch, as plain I/O does."""
        world = make_world()
        self._write(world, nprocs=4)
        for osd in world.volume.pool.osds:
            osd.fail()
        with pytest.raises(StorageUnavailable):
            _read_degraded(world, None)


def _campaign(world, plan=None, injector=None, seed=0):
    stack = direct_stack(world)
    return Campaign(world, stack, nprocs=4, per_proc_bytes=100 * KB,
                    record_bytes=25 * KB, work_target=30.0, interval=8.0,
                    mtbf=17.0, seed=seed, plan=plan, injector=injector)


class TestCampaignDeterminism:
    def test_empty_plan_matches_planless_campaign(self):
        """A no-fault FaultPlan must leave fault-free results unchanged —
        the figure-level guarantee that existing tables stay bit-identical."""
        a = _campaign(make_world(), seed=3).run()
        b = _campaign(make_world(), plan=FaultPlan((), seed=3)).run()
        assert (a.wall_time, a.n_failures, a.n_checkpoints, a.lost_work,
                a.checkpoint_time, a.restart_time) == \
               (b.wall_time, b.n_failures, b.n_checkpoints, b.lost_work,
                b.checkpoint_time, b.restart_time)

    def test_faulted_campaign_replays_bit_identically(self):
        def run_once():
            world = make_world()
            plan = FaultPlan.generate(7, horizon=120.0, mtbf=15.0,
                                      kinds=["osd_outage", "mds_crash"],
                                      n_osds=len(world.volume.pool.osds))
            inj = FaultInjector(world, plan)
            res = _campaign(world, plan=plan, injector=inj, seed=7).run()
            return (res.wall_time, res.n_failures, res.n_checkpoints,
                    res.lost_work, len(inj.applied))

        assert run_once() == run_once()
