"""Edge cases of the collective implementations the runtime trace
validator (repro.mpi.trace) reasons about: split sub-communicators,
nonzero-root vrank rotation, and zero-byte payloads."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.mpi import run_job
from repro.mpi.trace import attach_tracer, validate_tracer
from repro.sim import Engine


def run_ranks(nprocs, fn, n_nodes=4, cores=4, tracer=False):
    env = Engine()
    cluster = Cluster(env, ClusterSpec(name="t", n_nodes=n_nodes,
                                       node=NodeSpec(cores=cores)))
    t = attach_tracer(env, strict=True) if tracer else None
    result = run_job(env, cluster, nprocs, fn)
    return env, result, t


class TestSplitSubCommunicators:
    @pytest.mark.parametrize("nprocs,ngroups", [(4, 2), (9, 3), (12, 4)])
    def test_nested_collectives_stay_within_color(self, nprocs, ngroups):
        def fn(ctx):
            color = ctx.rank % ngroups
            sub = yield from ctx.comm.split(color)
            local = yield from sub.allreduce(ctx.rank, op=lambda a, b: a + b,
                                             nbytes=8)
            total = yield from ctx.comm.allreduce(local, op=max, nbytes=8)
            return (local, total)

        _, res, _ = run_ranks(nprocs, fn)
        sums = {c: sum(x for x in range(nprocs) if x % ngroups == c)
                for c in range(ngroups)}
        for r, (local, total) in enumerate(res.results):
            assert local == sums[r % ngroups]
            assert total == max(sums.values())

    def test_split_of_split(self):
        def fn(ctx):
            half = yield from ctx.comm.split(ctx.rank // 4)
            quarter = yield from half.split(half.rank // 2)
            members = yield from quarter.allgather(ctx.rank, nbytes=8)
            return members

        _, res, _ = run_ranks(8, fn)
        assert res.results == [[0, 1]] * 2 + [[2, 3]] * 2 \
            + [[4, 5]] * 2 + [[6, 7]] * 2

    def test_sub_communicator_names_are_unique(self):
        # Two same-color splits at different points must not alias (the
        # tracer keys per-communicator traces and validates each).
        def fn(ctx):
            a = yield from ctx.comm.split(0)
            yield from a.barrier()
            b = yield from ctx.comm.split(0)
            yield from b.barrier()
            return (a._shared.name, b._shared.name)

        _, res, _ = run_ranks(2, fn)
        name_a, name_b = res.results[0]
        assert name_a != name_b

    def test_traces_recorded_per_sub_communicator(self):
        def fn(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            yield from sub.gather(ctx.rank, nbytes=8, root=0)
            yield from ctx.comm.barrier()
            return None

        _, _, tracer = run_ranks(4, fn, tracer=True)
        traces = {c.name: tracer.trace_of(c) for c in tracer.comms()}
        # world: split then barrier on every rank; each sub-comm: one
        # gather from each of its two members.
        world = [t for n, t in traces.items() if "/" not in n]
        subs = [t for n, t in traces.items() if "/" in n]
        assert len(world) == 1 and len(subs) == 2
        for by_rank in world:
            assert all(seq == [("split", None), ("barrier", None)]
                       for seq in by_rank.values())
        for by_rank in subs:
            assert sorted(by_rank) == [0, 1]
            assert all(seq == [("gather", 0)] for seq in by_rank.values())
        assert validate_tracer(tracer) == []


class TestNonzeroRootVrankMapping:
    @pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
    @pytest.mark.parametrize("which", ["gather", "bcast"])
    def test_every_root_is_equivalent(self, nprocs, which):
        # The binomial tree runs on vranks (rank rotated by root); any
        # root must produce the same logical result.
        for root in range(nprocs):
            def fn(ctx, _root=root):
                if which == "gather":
                    out = yield from ctx.comm.gather(ctx.rank, nbytes=8,
                                                     root=_root)
                    return out
                val = "hdr" if ctx.rank == _root else None
                out = yield from ctx.comm.bcast(val, nbytes=8, root=_root)
                return out

            _, res, _ = run_ranks(nprocs, fn)
            if which == "gather":
                assert res.results[root] == list(range(nprocs))
                assert all(r is None for i, r in enumerate(res.results)
                           if i != root)
            else:
                assert res.results == ["hdr"] * nprocs

    def test_nonzero_root_trace_records_actual_root(self):
        def fn(ctx):
            yield from ctx.comm.gather(ctx.rank, nbytes=8, root=2)
            val = ctx.rank if ctx.rank == 1 else None
            yield from ctx.comm.bcast(val, nbytes=8, root=1)
            return None

        _, _, tracer = run_ranks(4, fn, tracer=True)
        (shared,) = tracer.comms()
        by_rank = tracer.trace_of(shared)
        assert all(seq == [("gather", 2), ("bcast", 1)]
                   for seq in by_rank.values())
        assert validate_tracer(tracer) == []


class TestZeroByteCollectives:
    def test_zero_byte_gather_and_bcast_carry_values(self):
        # nbytes=0 messages still deliver payloads and synchronize; the
        # paper's metadata collectives are often tiny.
        def fn(ctx):
            got = yield from ctx.comm.bcast(
                "m" if ctx.rank == 0 else None, nbytes=0, root=0)
            out = yield from ctx.comm.gather(got + str(ctx.rank), nbytes=0,
                                             root=0)
            return out

        _, res, _ = run_ranks(4, fn)
        assert res.results[0] == ["m0", "m1", "m2", "m3"]

    def test_zero_byte_collectives_take_latency_only(self):
        def fn(ctx):
            yield from ctx.comm.allgather(ctx.rank, nbytes=0)
            return ctx.env.now

        env, res, _ = run_ranks(8, fn, cores=1)
        assert env.now > 0          # still pays per-message latency
        assert env.now < 1e-3       # but transfers no bandwidth time

    def test_zero_byte_alltoall(self):
        def fn(ctx):
            vals = [ctx.rank * 10 + dst for dst in range(ctx.nprocs)]
            got = yield from ctx.comm.alltoall(vals, nbytes_each=0)
            return got

        _, res, _ = run_ranks(4, fn)
        for r, got in enumerate(res.results):
            assert got == [src * 10 + r for src in range(4)]


class TestTracerGranularity:
    def test_composites_record_once(self):
        # barrier/allgather/allreduce are built from gather+bcast
        # internally; the trace must show the *caller-level* collective
        # only, the granularity the caller's source has.
        def fn(ctx):
            yield from ctx.comm.barrier()
            yield from ctx.comm.allgather(ctx.rank, nbytes=8)
            yield from ctx.comm.allreduce(ctx.rank, op=max, nbytes=8)
            return None

        _, _, tracer = run_ranks(4, fn, tracer=True)
        (shared,) = tracer.comms()
        by_rank = tracer.trace_of(shared)
        assert all(seq == [("barrier", None), ("allgather", None),
                           ("allreduce", None)]
                   for seq in by_rank.values())
