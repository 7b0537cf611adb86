"""Crash-window consistency: what exactly survives a writer's death.

The spill/crash machinery (tests/plfs/test_tools.py) checks the tooling;
these tests pin the *reader-visible* guarantees across crash timing, the
property the paper's checkpointing use case ultimately rests on: a
restart never reads garbage — it reads a consistent prefix of each
writer's indexed history.
"""

import pytest

from repro.mpi import run_job
from repro.pfs.data import PatternData
from tests.conftest import make_world

KB = 1000


def run_crashy_write(world, nprocs, records, crash_after, crash_ranks):
    """Each rank writes `records` strided records; crashers abandon after
    `crash_after` writes."""

    def fn(ctx):
        fh = yield from world.mount.open_write(ctx.client, "/f", ctx.comm)
        for i in range(records):
            off = ctx.rank * 10 * KB + i * ctx.nprocs * 10 * KB
            yield from fh.write(off, PatternData(ctx.rank, i * 10 * KB, 10 * KB))
            if ctx.rank in crash_ranks and i + 1 == crash_after:
                fh.abandon()
                return "crashed"
        yield from world.mount.close_write(fh, ctx.comm)
        return "closed"

    return run_job(world.env, world.cluster, nprocs, fn)


def read_record(world, rank, i, nprocs, base=9000):
    def fn(ctx):
        fh = yield from world.mount.open_read(ctx.client, "/f", ctx.comm)
        off = rank * 10 * KB + i * nprocs * 10 * KB
        view = yield from fh.read(off, 10 * KB)
        yield from fh.close()
        if view.length == 0:
            return "missing"
        if view.content_equal(PatternData(rank, i * 10 * KB, 10 * KB)):
            return "intact"
        if not any(view.to_bytes()):
            return "hole"
        return "corrupt"

    return run_job(world.env, world.cluster, 1, fn, client_id_base=base).results[0]


class TestCrashConsistency:
    def test_spilled_prefix_survives_unspilled_tail_reads_as_hole(self):
        w = make_world(index_spill_records=2)
        res = run_crashy_write(w, nprocs=4, records=5, crash_after=4,
                               crash_ranks=(1,))
        assert res.results[1] == "crashed"
        # Records 0,1 were spilled (spill every 2 -> after record 2 and 4:
        # records 0-3 spilled); record 4 never written by rank 1.
        for i in (0, 1, 2, 3):
            assert read_record(w, 1, i, 4, base=9000 + i) == "intact"
        # The 5th record: rank 1 crashed before writing it at all.
        assert read_record(w, 1, 4, 4, base=9100) in ("hole", "missing")
        # Never corrupt:
        for i in range(5):
            assert read_record(w, 0, i, 4, base=9200 + i) == "intact"

    def test_crash_before_any_spill_loses_everything_cleanly(self):
        w = make_world(index_spill_records=0)
        run_crashy_write(w, nprocs=4, records=3, crash_after=2, crash_ranks=(2,))
        # All of rank 2's records unreachable; resolved as holes, not garbage.
        for i in (0, 1):
            assert read_record(w, 2, i, 4, base=9300 + i) in ("hole", "missing")
        # Survivors fully intact.
        for i in range(3):
            assert read_record(w, 3, i, 4, base=9400 + i) == "intact"

    def test_multiple_crashers(self):
        w = make_world(index_spill_records=1)  # spill every record
        res = run_crashy_write(w, nprocs=6, records=4, crash_after=3,
                               crash_ranks=(0, 5))
        assert res.results[0] == res.results[5] == "crashed"
        # Every record either side of the crash boundary is intact (spill=1
        # means all *written* records were indexed durably).
        for rank in (0, 5):
            for i in range(3):
                assert read_record(w, rank, i, 6, base=9500 + rank * 10 + i) == "intact"
            assert read_record(w, rank, 3, 6, base=9600 + rank) in ("hole", "missing")
