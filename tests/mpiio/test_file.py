"""Tests for the MPI-IO layer: drivers, collective open, two-phase I/O."""

import pytest

from repro.errors import UnsupportedOperation
from repro.mpi import run_job
from repro.mpiio import MPIFile, PlfsDriver, UfsDriver
from repro.pfs.data import PatternData
from tests.conftest import make_world

KB = 1000


def strided_writer(driver, path, per_proc, rec, collective=False):
    def fn(ctx):
        f = yield from MPIFile.open(ctx, path, "w", driver)
        pieces = []
        written = 0
        while written < per_proc:
            n = min(rec, per_proc - written)
            logical = ctx.rank * rec + (written // rec) * ctx.nprocs * rec
            pieces.append((logical, PatternData(ctx.rank, written, n)))
            written += n
        if collective:
            yield from f.write_at_all(pieces)
        else:
            for off, spec in pieces:
                yield from f.write_at(off, spec)
        yield from f.close()

    return fn


def strided_reader(driver, path, per_proc, rec, collective=False, shift=0):
    def fn(ctx):
        f = yield from MPIFile.open(ctx, path, "r", driver)
        src = (ctx.rank + shift) % ctx.nprocs
        reqs, specs = [], []
        got = 0
        while got < per_proc:
            n = min(rec, per_proc - got)
            logical = src * rec + (got // rec) * ctx.nprocs * rec
            reqs.append((logical, n))
            specs.append(PatternData(src, got, n))
            got += n
        if collective:
            views = yield from f.read_at_all(reqs)
        else:
            views = []
            for off, n in reqs:
                v = yield from f.read_at(off, n)
                views.append(v)
        yield from f.close()
        return all(v.content_equal(s) for v, s in zip(views, specs))

    return fn


def logical_size(w, use_plfs, path="/f"):
    """The file's size as a later stat through the stack reports it."""
    fs = w.mount if use_plfs else w.volume

    def fn(ctx):
        st = yield from fs.stat(ctx.client, path)
        return st.size

    return run_job(w.env, w.cluster, 1, fn, client_id_base=500).results[0]


@pytest.mark.parametrize("use_plfs", [False, True], ids=["ufs", "plfs"])
class TestDrivers:
    nprocs, per_proc, rec = 8, 35 * KB, 7 * KB

    def driver(self, w, use_plfs):
        return PlfsDriver(w.mount) if use_plfs else UfsDriver(w.volume)

    def test_independent_roundtrip(self, use_plfs):
        w = make_world()
        drv = self.driver(w, use_plfs)
        run_job(w.env, w.cluster, self.nprocs,
                strided_writer(drv, "/f", self.per_proc, self.rec))
        assert logical_size(w, use_plfs) == self.nprocs * self.per_proc
        rres = run_job(w.env, w.cluster, self.nprocs,
                       strided_reader(drv, "/f", self.per_proc, self.rec, shift=2),
                       client_id_base=1000)
        assert all(rres.results)

    def test_collective_roundtrip_with_cb(self, use_plfs):
        w = make_world()  # 8 ranks on 2 nodes: 2 aggregators
        drv = self.driver(w, use_plfs)
        run_job(w.env, w.cluster, self.nprocs,
                strided_writer(drv, "/f", self.per_proc, self.rec, collective=True))
        assert logical_size(w, use_plfs) == self.nprocs * self.per_proc
        rres = run_job(w.env, w.cluster, self.nprocs,
                       strided_reader(drv, "/f", self.per_proc, self.rec,
                                      collective=True, shift=3),
                       client_id_base=1000)
        assert all(rres.results)

    def test_mkdir_creates_parents_and_repeat_is_free(self, use_plfs):
        w = make_world(n_volumes=2, federation="subdir")
        driver = self.driver(w, use_plfs)

        def mds_ops():
            return sum(sum(v.mds.op_counts.values()) for v in w.volumes)

        def fn(ctx):
            yield from driver.mkdir(ctx.client, "/a/b/c")
            first = (ctx.env.now, mds_ops())
            yield from driver.mkdir(ctx.client, "/a/b/c")
            return first, (ctx.env.now, mds_ops())

        first, again = run_job(w.env, w.cluster, 1, fn).results[0]
        # PLFS makes logical directories on every volume; UFS on its own.
        for vol in w.volumes if use_plfs else w.volumes[:1]:
            assert vol.ns.resolve("/a/b/c").is_dir
        assert first[1] >= 3
        assert again == first

    def test_cb_write_then_independent_read(self, use_plfs):
        w = make_world()
        drv = self.driver(w, use_plfs)
        run_job(w.env, w.cluster, self.nprocs,
                strided_writer(drv, "/f", self.per_proc, self.rec, collective=True))
        rres = run_job(w.env, w.cluster, self.nprocs,
                       strided_reader(drv, "/f", self.per_proc, self.rec, shift=1),
                       client_id_base=1000)
        assert all(rres.results)


class TestCollectiveBuffering:
    def test_cb_reduces_fs_requests_for_tiny_records(self):
        """Two-phase turns many 1 KB writes into few large ones (§IV-D6)."""
        nprocs, per_proc, rec = 16, 64 * KB, 1 * KB

        def count_requests(collective):
            w = make_world()  # 16 ranks on 4 nodes: 4 aggregators
            run_job(w.env, w.cluster, nprocs,
                    strided_writer(UfsDriver(w.volume), "/f", per_proc, rec,
                                   collective=collective))
            return sum(o.requests for o in w.volume.pool.osds), w.env.now

        reqs_plain, t_plain = count_requests(False)  # a loop of write_at
        reqs_cb, t_cb = count_requests(True)         # one write_at_all
        assert reqs_cb < reqs_plain / 5
        assert t_cb < t_plain

    def test_rw_mode_rejected_by_plfs_driver(self):
        w = make_world()

        def fn(ctx):
            with pytest.raises(UnsupportedOperation):
                yield from MPIFile.open(ctx, "/f", "rw", PlfsDriver(w.mount))
            return True

        assert run_job(w.env, w.cluster, 2, fn).results == [True, True]

    def test_empty_collective_participation(self):
        """Ranks with no data still complete collective calls."""
        w = make_world()

        def fn(ctx):
            f = yield from MPIFile.open(ctx, "/f", "w", UfsDriver(w.volume))
            pieces = [(0, PatternData(1, 0, 10 * KB))] if ctx.rank == 0 else []
            yield from f.write_at_all(pieces)
            yield from f.write_at_all([])  # an all-empty round
            yield from f.close()
            return True

        assert all(run_job(w.env, w.cluster, 4, fn).results)

    def test_double_close_rejected(self):
        w = make_world()

        def fn(ctx):
            f = yield from MPIFile.open(ctx, "/f", "w", UfsDriver(w.volume))
            yield from f.close()
            try:
                yield from f.close()
            except Exception:
                return "raised"

        assert run_job(w.env, w.cluster, 1, fn).results == ["raised"]
