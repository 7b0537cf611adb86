"""Integration scenarios across the whole stack.

Each test tells one of the paper's stories end-to-end on a miniature
world, asserting both correctness (bytes) and the performance *ordering*
the paper reports.
"""

import pytest

from repro.mpi import run_job
from repro.mpiio import MPIFile, PlfsDriver, UfsDriver
from repro.pfs import gpfs, lustre, panfs
from repro.pfs.data import PatternData
from repro.units import KB, MB
from repro.workloads import (
    IOR,
    MPIIOTest,
    direct_stack,
    nn_metadata_storm,
    plfs_stack,
    run_workload,
)
from tests.conftest import make_world


class TestPortability:
    """§III: the transformation wins on all three modeled file systems."""

    @pytest.mark.parametrize("preset", [panfs, lustre, gpfs])
    def test_plfs_beats_direct_n1_writes_everywhere(self, preset):
        wl = MPIIOTest(16, size_per_proc=2 * MB, transfer=47 * KB)
        wd = make_world(pfs_cfg=preset())
        t_direct = run_workload(wd, wl, direct_stack(wd), do_read=False).write.wall_time
        wp = make_world(pfs_cfg=preset())
        t_plfs = run_workload(wp, wl, plfs_stack(wp), do_read=False).write.wall_time
        assert t_plfs < t_direct / 2, preset().name

    @pytest.mark.parametrize("preset", [panfs, lustre, gpfs])
    def test_roundtrip_verifies_everywhere(self, preset):
        wl = MPIIOTest(8, size_per_proc=200 * KB, transfer=25 * KB)
        w = make_world(pfs_cfg=preset())
        res = run_workload(w, wl, plfs_stack(w), verify=True)
        assert res.read.verified


class TestAggregationOrdering:
    """§IV: read-open time ordering — flatten < parallel << original."""

    def test_read_open_ordering_at_scale(self):
        opens = {}
        for agg in ("original", "flatten", "parallel"):
            w = make_world(n_nodes=16, cores=4, aggregation=agg)
            wl = MPIIOTest(64, size_per_proc=2 * MB, transfer=100 * KB)
            res = run_workload(w, wl, plfs_stack(w), cold_read=False)
            opens[agg] = res.read.open_time
        assert opens["flatten"] < opens["parallel"] < opens["original"]

    def test_flatten_costs_at_close(self):
        closes = {}
        for agg in ("flatten", "parallel"):
            w = make_world(n_nodes=16, cores=4, aggregation=agg)
            wl = MPIIOTest(64, size_per_proc=2 * MB, transfer=100 * KB)
            res = run_workload(w, wl, plfs_stack(w), do_read=False)
            closes[agg] = res.write.close_time
        assert closes["flatten"] > closes["parallel"]


class TestWriteReadManyTimes:
    """§IV-A's use case: write once, read many — flatten amortizes."""

    def test_flatten_wins_on_repeated_reads(self):
        def total_read_time(agg, n_reads=4):
            w = make_world(n_nodes=8, cores=4, aggregation=agg)
            wl = MPIIOTest(32, size_per_proc=1 * MB, transfer=50 * KB)
            run_workload(w, wl, plfs_stack(w), do_read=False)
            total = 0.0
            for _ in range(n_reads):
                w.drop_caches()
                r = run_workload(w, wl, plfs_stack(w), do_write=False)
                total += r.read.open_time
            return total

        assert total_read_time("flatten") < total_read_time("original")


class TestMixedStacks:
    def test_plfs_file_invisible_to_direct_reader_as_flat_file(self):
        """A PLFS logical file is physically a directory on the backing FS —
        the 'preserving the user's view' is middleware magic, not storage."""
        w = make_world()

        def writer(ctx):
            fh = yield from w.mount.open_write(ctx.client, "/f", ctx.comm)
            yield from fh.write(0, PatternData(1, 0, 10 * KB))
            yield from w.mount.close_write(fh, ctx.comm)

        run_job(w.env, w.cluster, 2, writer)
        node = w.volume.ns.resolve("/f")
        assert node.is_dir  # the container, not a flat file

    def test_same_api_both_drivers(self):
        """The MPIFile facade is driver-transparent, like real ADIO."""
        for make_driver in (lambda w: UfsDriver(w.volume),
                            lambda w: PlfsDriver(w.mount)):
            w = make_world()

            def fn(ctx, mk=make_driver):
                f = yield from MPIFile.open(ctx, "/f", "w", mk(w))
                yield from f.write_at(ctx.rank * KB, PatternData(ctx.rank, 0, KB))
                yield from f.close()
                g = yield from MPIFile.open(ctx, "/f", "r", mk(w))
                view = yield from g.read_at(ctx.rank * KB, KB)
                yield from g.close()
                return view.content_equal(PatternData(ctx.rank, 0, KB))

            assert all(run_job(w.env, w.cluster, 4, fn).results)


class TestMetadataStoryline:
    def test_federation_recovers_plfs_metadata_deficit(self):
        """PLFS-1 loses the create storm; PLFS-6 federated wins (Fig 7a)."""
        wl_args = dict(nprocs=32, files_per_proc=4)
        direct = nn_metadata_storm(make_world(), stack="direct", **wl_args)
        plfs1 = nn_metadata_storm(make_world(), stack="plfs", **wl_args)
        plfs6 = nn_metadata_storm(
            make_world(n_volumes=6, federation="container"), stack="plfs", **wl_args)
        assert plfs1.open_time > direct.open_time > plfs6.open_time

    def test_ior_with_both_stacks_matches_bytes(self):
        """IOR write+read through PLFS and direct yield identical content."""
        wl = IOR(8, size_per_proc=300 * KB, transfer=100 * KB)
        for stack_fn in (direct_stack, plfs_stack):
            w = make_world()
            res = run_workload(w, wl, stack_fn(w), verify=True)
            assert res.read.verified
