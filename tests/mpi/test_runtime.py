"""Unit tests for the job launcher and rank contexts."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.errors import ConfigError, DeadlockError
from repro.mpi import run_job
from repro.sim import Engine


def make(n_nodes=4, cores=4):
    env = Engine()
    return env, Cluster(env, ClusterSpec(name="t", n_nodes=n_nodes,
                                         node=NodeSpec(cores=cores)))


class TestRunJob:
    def test_results_in_rank_order(self):
        env, cluster = make()

        def fn(ctx):
            yield ctx.env.timeout((ctx.nprocs - ctx.rank) * 0.1)  # reverse finish
            return ctx.rank

        res = run_job(env, cluster, 8, fn)
        assert res.results == list(range(8))

    def test_context_fields(self):
        env, cluster = make()

        def fn(ctx):
            yield ctx.env.timeout(0)
            return (ctx.rank, ctx.nprocs, ctx.comm.size, ctx.client.client_id,
                    ctx.node.id)

        res = run_job(env, cluster, 6, fn, client_id_base=100)
        for r, (rank, nprocs, size, cid, node_id) in enumerate(res.results):
            assert rank == r and nprocs == 6 and size == 6
            assert cid == 100 + r
            assert node_id == cluster.node_for_rank(r, 6).id

    def test_metrics_from_phases(self):
        env, cluster = make()

        def fn(ctx):
            ctx.start("open")
            yield ctx.env.timeout(1.0 + ctx.rank)
            ctx.stop("open")

        res = run_job(env, cluster, 4, fn, bytes_total=400)
        assert res.metrics.phase_max["open"] == pytest.approx(4.0)
        assert res.metrics.phase_mean["open"] == pytest.approx(2.5)
        assert res.metrics.bytes_total == 400
        assert res.duration == pytest.approx(4.0)

    def test_zero_ranks_rejected(self):
        env, cluster = make()
        with pytest.raises(ConfigError):
            run_job(env, cluster, 0, lambda ctx: None)

    def test_stuck_rank_reports_deadlock(self):
        env, cluster = make()

        def fn(ctx):
            if ctx.rank == 3:
                yield ctx.env.event()  # never fires
            else:
                yield ctx.env.timeout(1)

        with pytest.raises(DeadlockError, match="r3"):
            run_job(env, cluster, 4, fn)

    def test_mismatched_collective_deadlocks(self):
        env, cluster = make()

        def fn(ctx):
            if ctx.rank != 0:
                yield from ctx.comm.barrier()  # rank 0 never joins
            else:
                yield ctx.env.timeout(0)

        with pytest.raises(DeadlockError):
            run_job(env, cluster, 4, fn)

    def test_deadlock_report_names_blocked_ranks_and_their_waits(self):
        """The error must say *who* is stuck and *on what* — a fault plan
        that wedges a job has to be diagnosable from the message alone."""
        env, cluster = make()

        def fn(ctx):
            if ctx.rank == 0:
                yield ctx.env.timeout(0)
            else:
                yield from ctx.comm.barrier()  # rank 0 never joins

        with pytest.raises(DeadlockError) as exc:
            run_job(env, cluster, 3, fn, name="stuck-job")
        msg = str(exc.value)
        assert "stuck-job" in msg
        assert "2 of 3 ranks" in msg
        # One line per blocked rank, each naming what it waits on.
        assert "r1" in msg and "r2" in msg
        assert "waiting on" in msg

    def test_deadlock_report_names_a_paused_osd(self):
        """A striped write stuck behind a paused OSD must name that OSD and
        say it is PAUSED: the report looks through the request's fan-in
        to the one device that never finished."""
        from repro.pfs import PatternData, Volume, panfs
        env, cluster = make()
        vol = Volume(env, cluster, panfs())
        stuck = []

        def fn(ctx):
            fh = yield from vol.open(ctx.client, f"/f{ctx.rank}", "w", create=True)
            if ctx.rank == 0:
                osd = vol.pool.lane_osd(fh.inode.uid, 3)
                osd.server.pause()  # never resumed
                stuck.append(osd.server.name)
            yield from fh.write(0, PatternData(ctx.rank, 0, 16 * 64 * 1024))
            yield from fh.close()

        with pytest.raises(DeadlockError) as exc:
            run_job(env, cluster, 1, fn, name="paused-osd")
        msg = str(exc.value)
        assert f"FairShareServer {stuck[0]!r} (PAUSED" in msg

    def test_sequential_jobs_share_the_engine_clock(self):
        env, cluster = make()

        def fn(ctx):
            yield ctx.env.timeout(5)
            return ctx.env.now

        run_job(env, cluster, 2, fn)
        second = run_job(env, cluster, 2, fn)
        assert second.start_time == pytest.approx(5.0)
        assert second.results == [10.0, 10.0]

    def test_rank_exception_propagates(self):
        env, cluster = make()

        def fn(ctx):
            yield ctx.env.timeout(0)
            if ctx.rank == 1:
                raise RuntimeError("rank blew up")

        with pytest.raises(RuntimeError, match="blew up"):
            run_job(env, cluster, 2, fn)
