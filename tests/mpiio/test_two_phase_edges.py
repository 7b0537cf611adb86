"""Edge cases of the two-phase collective buffering implementation.

There is one aggregator per node a job spans, so each test picks its
world's cores per node to get the aggregator count it needs.
"""

import pytest

from repro.mpi import run_job
from repro.mpiio import MPIFile, UfsDriver
from repro.pfs.data import LiteralData, PatternData, ZeroData
from repro.units import KB, KiB, MiB
from tests.conftest import make_world


def open_cb(ctx, world, mode):
    return MPIFile.open(ctx, "/f", mode, UfsDriver(world.volume))


class TestTwoPhaseWrite:
    def test_piece_spanning_domain_boundary(self):
        """One rank's large piece splits across two aggregator domains."""
        world = make_world(cores=2)  # 4 ranks on 2 nodes: 2 aggregators

        def fn(ctx):
            f = yield from open_cb(ctx, world, "w")
            pieces = []
            if ctx.rank == 0:
                pieces = [(0, PatternData(1, 0, 2 * MiB))]
            elif ctx.rank == 1:
                pieces = [(2 * MiB, PatternData(2, 0, 2 * MiB))]
            yield from f.write_at_all(pieces)
            yield from f.close()

        run_job(world.env, world.cluster, 4, fn)
        node = world.volume.ns.resolve("/f")
        assert node.data.size == 4 * MiB
        assert node.data.read(0, 2 * MiB).content_equal(PatternData(1, 0, 2 * MiB))
        assert node.data.read(2 * MiB, 2 * MiB).content_equal(PatternData(2, 0, 2 * MiB))

    def test_single_aggregator(self):
        world = make_world(cores=8)  # 8 ranks on one node: 1 aggregator

        def fn(ctx):
            f = yield from open_cb(ctx, world, "w")
            yield from f.write_at_all([(ctx.rank * KB, PatternData(ctx.rank, 0, KB))])
            yield from f.close()

        run_job(world.env, world.cluster, 8, fn)
        node = world.volume.ns.resolve("/f")
        for r in range(8):
            assert node.data.read(r * KB, KB).content_equal(PatternData(r, 0, KB))

    def test_interleaved_tiny_records_coalesce(self):
        """The aggregator's writes are big & few even with 1 KB records."""
        world = make_world(cores=8)  # one node: 1 aggregator
        nprocs = 8

        def fn(ctx):
            f = yield from open_cb(ctx, world, "w")
            pieces = [(i * nprocs * KB + ctx.rank * KB, PatternData(ctx.rank, i * KB, KB))
                      for i in range(16)]
            yield from f.write_at_all(pieces)
            yield from f.close()

        run_job(world.env, world.cluster, nprocs, fn)
        # The round spans 128 KB contiguous -> one coalesced write run.
        node = world.volume.ns.resolve("/f")
        assert node.data.size == 16 * nprocs * KB
        assert len(node.data.sources) <= 4  # coalesced, not 128 tiny writes


class TestTwoPhaseRead:
    def test_read_with_holes_returns_zeros(self):
        world = make_world(cores=2)  # 4 ranks on 2 nodes: 2 aggregators

        def writer(ctx):
            f = yield from open_cb(ctx, world, "w")
            pieces = [(0, LiteralData(b"A" * 1000))] if ctx.rank == 0 else []
            yield from f.write_at_all(pieces)
            # Leave [1000, 5000) a hole, then more data.
            pieces = [(5000, LiteralData(b"B" * 1000))] if ctx.rank == 1 else []
            yield from f.write_at_all(pieces)
            yield from f.close()

        run_job(world.env, world.cluster, 4, fn=writer)

        def reader(ctx):
            f = yield from open_cb(ctx, world, "r")
            views = yield from f.read_at_all([(500, 1000)])
            yield from f.close()
            got = views[0].to_bytes()
            return got == b"A" * 500 + b"\x00" * 500

        res = run_job(world.env, world.cluster, 4, reader, client_id_base=100)
        assert all(res.results)

    def test_disjoint_requests_per_rank(self):
        world = make_world(cores=2)  # 4 ranks on 2 nodes: 2 aggregators
        nprocs = 4

        def writer(ctx):
            f = yield from open_cb(ctx, world, "w")
            yield from f.write_at_all(
                [(ctx.rank * 100 * KB, PatternData(ctx.rank, 0, 100 * KB))])
            yield from f.close()

        run_job(world.env, world.cluster, nprocs, writer)

        def reader(ctx):
            src = (ctx.rank + 1) % nprocs
            f = yield from open_cb(ctx, world, "r")
            views = yield from f.read_at_all([
                (src * 100 * KB, 50 * KB),
                (src * 100 * KB + 50 * KB, 50 * KB),
            ])
            yield from f.close()
            return (views[0].content_equal(PatternData(src, 0, 50 * KB))
                    and views[1].content_equal(PatternData(src, 50 * KB, 50 * KB)))

        res = run_job(world.env, world.cluster, nprocs, reader, client_id_base=100)
        assert all(res.results)

    def test_empty_read_round(self):
        world = make_world(cores=2)  # 3 ranks on 2 nodes: 2 aggregators

        def fn(ctx):
            f = yield from open_cb(ctx, world, "w")
            yield from f.write_at_all([(0, ZeroData(1000))] if ctx.rank == 0 else [])
            yield from f.close()
            g = yield from open_cb(ctx, world, "r")
            out = yield from g.read_at_all([])
            yield from g.close()
            return out == []

        assert all(run_job(world.env, world.cluster, 3, fn).results)


class TestOneRank:
    def test_one_rank_round_trip(self):
        """A one-rank job is its own aggregator: pieces with a gap between
        them go out and come back, and the gap reads as zeros."""
        world = make_world()

        def fn(ctx):
            f = yield from open_cb(ctx, world, "w")
            yield from f.write_at_all([(0, PatternData(1, 0, KB)),
                                       (4 * KB, PatternData(2, 0, KB))])
            yield from f.close()
            g = yield from open_cb(ctx, world, "r")
            views = yield from g.read_at_all([(4 * KB, KB), (KB, 3 * KB),
                                              (0, KB)])
            yield from g.close()
            return (views[0].content_equal(PatternData(2, 0, KB))
                    and views[1].to_bytes() == b"\x00" * 3 * KB
                    and views[2].content_equal(PatternData(1, 0, KB)))

        assert run_job(world.env, world.cluster, 1, fn).results == [True]
        assert world.volume.ns.resolve("/f").data.size == 5 * KB
