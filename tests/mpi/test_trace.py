"""The runtime collective-congruence check (repro.mpi.trace).

A strict tracer raises at job drain when the ranks of a communicator
issued different collective sequences, or when a job that finished left
a sent message unreceived.  The coverage tests run the MPI-IO paths no
figure reaches under a strict tracer and pin the traced sequences, so
each test fails if its collective site drops out of the tracer's view.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.errors import CollectiveMismatchError, DeadlockError
from repro.mpi import run_job
from repro.mpi.trace import attach_tracer, validate_tracer
from repro.mpiio import MPIFile, UfsDriver
from repro.sim import Engine
from repro.units import MiB
from repro.workloads import LANL3, direct_stack, run_workload
from tests.conftest import make_world


def _world(n_nodes=4, cores=4):
    env = Engine()
    cluster = Cluster(env, ClusterSpec(name="t", n_nodes=n_nodes,
                                       node=NodeSpec(cores=cores)))
    return env, cluster


def _leader_only_bcast(ctx):
    c = ctx.comm
    if c.rank == 0:
        yield from c.bcast("hdr", root=0)
    vals = yield from c.gather(c.rank, root=0)
    return vals


class TestRuntimeConfirmation:
    def test_divergent_fixture_reports_non_congruent_traces(self):
        # A leader-only broadcast: rank 0 issues a collective the other
        # ranks skip, and the traced run names the per-rank divergence.
        env, cluster = _world()
        attach_tracer(env, strict=True)
        with pytest.raises(CollectiveMismatchError) as err:
            run_job(env, cluster, 4, _leader_only_bcast, name="bad")
        msg = str(err.value)
        assert "diverge at collective #0" in msg
        assert "rank 0: bcast(root=0)" in msg
        assert "rank 1: gather(root=0)" in msg

    def test_congruent_job_passes_strict_validation(self):
        def fn(ctx):
            c = ctx.comm
            yield from c.barrier()
            data = yield from c.bcast("x", root=0)
            yield from c.gather(data, root=0)
            return data

        env, cluster = _world()
        tracer = attach_tracer(env, strict=True)
        result = run_job(env, cluster, 4, fn, name="ok")
        assert result.results == ["x"] * 4
        assert validate_tracer(tracer) == []

    def test_non_strict_tracer_collects_instead_of_raising(self):
        # The model checker's mode: violations become oracle findings.
        env, cluster = _world()
        tracer = attach_tracer(env, strict=False)
        # The divergence also desynchronizes tags, so the job hangs; a
        # strict=False tracer still upgrades the error to the mismatch.
        with pytest.raises((CollectiveMismatchError, DeadlockError)):
            run_job(env, cluster, 4, _leader_only_bcast, name="bad")
        errors = validate_tracer(tracer)
        assert errors and "diverge" in errors[0]


def _orphan_send(ctx):
    # Rank 0 sends on a tag nobody receives; every rank still finishes.
    if ctx.rank == 0:
        yield from ctx.comm.send(1, "x", nbytes=1, tag=("odd", 7))
    yield from ctx.comm.barrier()
    return None


class TestUnreceivedMessages:
    def test_orphan_send_raises_at_drain(self):
        env, cluster = _world()
        attach_tracer(env, strict=True)
        with pytest.raises(CollectiveMismatchError) as err:
            run_job(env, cluster, 2, _orphan_send, name="orphan")
        msg = str(err.value)
        assert "'orphan'" in msg
        assert "(dst=1, src=0, tag=('odd', 7)) x1" in msg

    def test_orphan_in_a_split_is_named_by_its_communicator(self):
        def fn(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            if sub.rank == 0:
                yield from sub.send(1, "x", tag=5)
            yield from ctx.comm.barrier()
            return None

        env, cluster = _world()
        attach_tracer(env, strict=True)
        with pytest.raises(CollectiveMismatchError) as err:
            run_job(env, cluster, 4, fn, name="j")
        msg = str(err.value)
        assert "'j/split0@2'" in msg and "'j/split1@2'" in msg
        assert msg.count("(dst=1, src=0, tag=5) x1") == 2

    def test_non_strict_tracer_collects_orphans(self):
        env, cluster = _world()
        tracer = attach_tracer(env, strict=False)
        run_job(env, cluster, 2, _orphan_send, name="orphan")
        (msg,) = validate_tracer(tracer)
        assert "'orphan': sent but never received" in msg

    def test_matched_send_recv_passes(self):
        def fn(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, "x", nbytes=1, tag=("odd", 7))
            elif ctx.rank == 1:
                got = yield from ctx.comm.recv(0, tag=("odd", 7))
                return got
            return None

        env, cluster = _world()
        tracer = attach_tracer(env, strict=True)
        assert run_job(env, cluster, 2, fn).results == [None, "x"]
        assert validate_tracer(tracer) == []

    def test_untraced_orphan_is_not_checked(self):
        env, cluster = _world()
        run_job(env, cluster, 2, _orphan_send)


# -- coverage: the MPI-IO collective sites no figure reaches -----------------

def _job_traces(tracer, nprocs):
    """job name -> the one collective sequence all *nprocs* ranks issued."""
    out = {}
    for comm in tracer.comms():
        by_rank = tracer.trace_of(comm)
        assert sorted(by_rank) == list(range(nprocs))
        out[comm.name] = by_rank[0]
    return out


OPEN_W = [("barrier", None), ("bcast", 0)]  # writer barrier + rank-0 create


class TestCollectiveIoCoverage:
    def test_lanl3_collective_rounds(self):
        # The workload's collective rounds run two-phase I/O.
        per_round = [("allgather", None), ("barrier", None)]
        world = make_world()
        tracer = attach_tracer(world.env, strict=True)
        wl = LANL3(4, total_bytes=4 * MiB, round_bytes=MiB)
        res = run_workload(world, wl, direct_stack(world), verify=True)
        assert res.read.verified
        assert _job_traces(tracer, 4) == {
            "lanl3-write": OPEN_W + per_round * 4,
            "lanl3-read": per_round * 4,
        }

    def test_two_phase_with_no_pieces_still_synchronizes(self):
        # Every rank passes an empty list: no file domain exists, and
        # both two-phase paths end in a bare barrier.
        world = make_world()
        tracer = attach_tracer(world.env, strict=True)

        def fn(ctx):
            f = yield from MPIFile.open(ctx, "/f", "w", UfsDriver(world.volume))
            yield from f.write_at_all([])
            views = yield from f.read_at_all([])
            yield from f.close()
            return views

        assert run_job(world.env, world.cluster, 4, fn,
                       name="empty").results == [[]] * 4
        assert _job_traces(tracer, 4) == {
            "empty": [("bcast", 0)]
            + [("allgather", None), ("barrier", None)] * 2,
        }
