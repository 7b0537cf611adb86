"""Unit tests for the simulated MPI layer (p2p + collectives)."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.errors import MPIError
from repro.mpi import Communicator, run_job
from repro.sim import Engine


def make_cluster(env, n_nodes=4, cores=4):
    return Cluster(env, ClusterSpec(name="t", n_nodes=n_nodes, node=NodeSpec(cores=cores)))


def run_ranks(nprocs, fn, n_nodes=4, cores=4):
    env = Engine()
    cluster = make_cluster(env, n_nodes, cores)
    result = run_job(env, cluster, nprocs, fn)
    return env, result


class TestPointToPoint:
    def test_send_recv(self):
        def fn(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, {"x": 42}, nbytes=100)
                return "sent"
            elif ctx.rank == 1:
                msg = yield from ctx.comm.recv(0)
                return msg["x"]
            return None

        _, res = run_ranks(2, fn)
        assert res.results == ["sent", 42]

    def test_messages_take_time(self):
        def fn(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, b"", nbytes=10_000_000)
            elif ctx.rank == 1:
                yield from ctx.comm.recv(0)
            return ctx.env.now

        env, res = run_ranks(8, fn)  # ranks 0 and 1 land on different... same node
        assert env.now > 0

    def test_cross_node_slower_than_none(self):
        """A 100 MB message at ~3.2 GB/s NIC takes ~31 ms."""
        def fn(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, None, nbytes=100_000_000)
            elif ctx.rank == 1:
                yield from ctx.comm.recv(0)
            return ctx.env.now

        env, _ = run_ranks(2, fn, cores=1)  # force different nodes
        assert env.now == pytest.approx(100_000_064 / 3.2e9 + 2e-6, rel=0.05)

    def test_tag_matching(self):
        def fn(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, "b-first", nbytes=0, tag="b")
                yield from ctx.comm.send(1, "a-second", nbytes=0, tag="a")
            elif ctx.rank == 1:
                a = yield from ctx.comm.recv(0, tag="a")
                b = yield from ctx.comm.recv(0, tag="b")
                return (a, b)
            return None

        _, res = run_ranks(2, fn)
        assert res.results[1] == ("a-second", "b-first")

    def test_fifo_per_source(self):
        def fn(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield from ctx.comm.send(1, i, nbytes=0)
            elif ctx.rank == 1:
                got = []
                for _ in range(5):
                    got.append((yield from ctx.comm.recv(0)))
                return got
            return None

        _, res = run_ranks(2, fn)
        assert res.results[1] == [0, 1, 2, 3, 4]

    def test_bad_rank_rejected(self):
        def fn(ctx):
            with pytest.raises(MPIError):
                yield from ctx.comm.send(99, None)
            with pytest.raises(MPIError):
                yield from ctx.comm.recv(-1)
            return "ok"
            yield  # pragma: no cover

        _, res = run_ranks(1, fn)
        assert res.results == ["ok"]


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7, 8, 16, 33])
class TestCollectives:
    def test_gather(self, nprocs):
        def fn(ctx):
            out = yield from ctx.comm.gather(ctx.rank * 10, nbytes=8, root=0)
            return out

        _, res = run_ranks(nprocs, fn)
        assert res.results[0] == [r * 10 for r in range(nprocs)]
        assert all(r is None for r in res.results[1:])

    def test_gather_nonzero_root(self, nprocs):
        root = nprocs - 1

        def fn(ctx):
            out = yield from ctx.comm.gather(ctx.rank, nbytes=8, root=root)
            return out

        _, res = run_ranks(nprocs, fn)
        assert res.results[root] == list(range(nprocs))

    def test_bcast(self, nprocs):
        def fn(ctx):
            val = "payload" if ctx.rank == 0 else None
            got = yield from ctx.comm.bcast(val, nbytes=64, root=0)
            return got

        _, res = run_ranks(nprocs, fn)
        assert res.results == ["payload"] * nprocs

    def test_bcast_nonzero_root(self, nprocs):
        root = nprocs // 2

        def fn(ctx):
            val = ctx.rank if ctx.rank == root else None
            got = yield from ctx.comm.bcast(val, nbytes=8, root=root)
            return got

        _, res = run_ranks(nprocs, fn)
        assert res.results == [root] * nprocs

    def test_allgather(self, nprocs):
        def fn(ctx):
            got = yield from ctx.comm.allgather(ctx.rank ** 2, nbytes=8)
            return got

        _, res = run_ranks(nprocs, fn)
        expect = [r ** 2 for r in range(nprocs)]
        assert res.results == [expect] * nprocs

    def test_reduce(self, nprocs):
        def fn(ctx):
            got = yield from ctx.comm.reduce(ctx.rank + 1, op=lambda a, b: a + b,
                                             nbytes=8, root=0)
            return got

        _, res = run_ranks(nprocs, fn)
        assert res.results[0] == nprocs * (nprocs + 1) // 2

    def test_allreduce(self, nprocs):
        def fn(ctx):
            got = yield from ctx.comm.allreduce(ctx.rank, op=max, nbytes=8)
            return got

        _, res = run_ranks(nprocs, fn)
        assert res.results == [nprocs - 1] * nprocs

    def test_barrier_synchronizes(self, nprocs):
        def fn(ctx):
            yield ctx.env.timeout(float(ctx.rank))  # stagger arrivals
            yield from ctx.comm.barrier()
            return ctx.env.now

        _, res = run_ranks(nprocs, fn)
        assert min(res.results) >= nprocs - 1

    def test_scatter(self, nprocs):
        def fn(ctx):
            values = [f"item{r}" for r in range(nprocs)] if ctx.rank == 0 else None
            got = yield from ctx.comm.scatter(values, nbytes_each=16, root=0)
            return got

        _, res = run_ranks(nprocs, fn)
        assert res.results == [f"item{r}" for r in range(nprocs)]


class TestAlltoallAndSplit:
    @pytest.mark.parametrize("nprocs", [2, 4, 5, 8])
    def test_alltoall(self, nprocs):
        def fn(ctx):
            vals = [(ctx.rank, dst) for dst in range(nprocs)]
            got = yield from ctx.comm.alltoall(vals, nbytes_each=16)
            return got

        _, res = run_ranks(nprocs, fn)
        for r, got in enumerate(res.results):
            assert got == [(src, r) for src in range(nprocs)]

    @pytest.mark.parametrize("nprocs,ngroups", [(8, 2), (9, 3), (16, 4), (7, 3)])
    def test_split_groups(self, nprocs, ngroups):
        def fn(ctx):
            color = ctx.rank % ngroups
            sub = yield from ctx.comm.split(color)
            got = yield from sub.allgather(ctx.rank, nbytes=8)
            return (color, sub.rank, sub.size, got)

        _, res = run_ranks(nprocs, fn)
        for r, (color, sub_rank, sub_size, got) in enumerate(res.results):
            members = [x for x in range(nprocs) if x % ngroups == color]
            assert sub_size == len(members)
            assert got == members
            assert members[sub_rank] == r

    def test_split_sub_collectives_are_independent(self):
        def fn(ctx):
            sub = yield from ctx.comm.split(ctx.rank // 4)
            total = yield from sub.allreduce(ctx.rank, op=lambda a, b: a + b, nbytes=8)
            return total

        _, res = run_ranks(8, fn)
        assert res.results == [0 + 1 + 2 + 3] * 4 + [4 + 5 + 6 + 7] * 4


class TestMailboxes:
    def test_mailboxes_are_dropped_once_drained(self):
        """recv drops a box it leaves idle: after collectives, a split, a
        recv posted before its send and two queued same-tag sends, no
        communicator keeps a mailbox, and every payload arrived in order."""
        comms = {}

        def fn(ctx):
            comm, rank = ctx.comm, ctx.rank
            comms[id(comm._shared)] = comm._shared
            got = [(yield from comm.bcast("b" if rank == 0 else None, root=0)),
                   (yield from comm.gather(rank, root=0)),
                   (yield from comm.allgather(rank))]
            sub = yield from comm.split(rank % 2, key=-rank)
            comms[id(sub._shared)] = sub._shared
            got.append((yield from sub.allgather(rank)))
            if rank == 0:
                early = ctx.env.process(comm.recv(1, tag="early"))  # posted before the send
                yield ctx.env.timeout(1e-2)  # both "q" sends are queued by now
                got.append((yield from comm.recv(1, tag="q")))
                got.append((yield from comm.recv(1, tag="q")))
                got.append((yield early))
            elif rank == 1:
                yield ctx.env.timeout(1e-3)
                yield from comm.send(0, "e", tag="early")
                yield from comm.send(0, "q1", tag="q")
                yield from comm.send(0, "q2", tag="q")
            return got

        _, res = run_ranks(6, fn)
        evens, odds = [4, 2, 0], [5, 3, 1]
        assert res.results[0] == ["b", list(range(6)), list(range(6)), evens,
                                  "q1", "q2", "e"]
        assert res.results[3] == ["b", None, list(range(6)), odds]
        assert len(comms) == 3
        assert all(c._mail == {} for c in comms.values())

    def test_late_send_recreates_a_dropped_box(self):
        def fn(ctx):
            if ctx.rank == 0:
                for i in range(3):
                    yield from ctx.comm.send(1, i)
                    yield ctx.env.timeout(1e-3)
            else:
                got = []
                for _ in range(3):
                    got.append((yield from ctx.comm.recv(0)))
                return got

        _, res = run_ranks(2, fn)
        assert res.results[1] == [0, 1, 2]


class TestSplitPartition:
    def test_partition_matches_per_rank_definition_at_1024_ranks(self):
        """The once-per-split partition gives every rank the (rank, size,
        nodes) that filtering and sorting all triples itself would."""
        nprocs, ncolors = 1024, 7
        parent_nodes = []

        def fn(ctx):
            if ctx.rank == 0:
                parent_nodes.extend(ctx.comm._shared.nodes)
            sub = yield from ctx.comm.split(ctx.rank % ncolors, key=-ctx.rank)
            return sub.rank, sub.size, sub._shared.nodes

        _, res = run_ranks(nprocs, fn, n_nodes=64, cores=16)
        triples = [(r % ncolors, -r, r) for r in range(nprocs)]
        for rank, (color, _, _) in enumerate(triples):
            members = sorted((k, r) for c, k, r in triples if c == color)
            ranks = [r for _, r in members]
            assert res.results[rank] == (ranks.index(rank), len(ranks),
                                         [parent_nodes[r] for r in ranks])


class TestScaling:
    def test_large_bcast_completes(self):
        """512-rank broadcast finishes in O(log N) message latencies."""
        def fn(ctx):
            got = yield from ctx.comm.bcast("x" if ctx.rank == 0 else None,
                                            nbytes=1000, root=0)
            return got

        env, res = run_ranks(512, fn, n_nodes=32, cores=16)
        assert all(r == "x" for r in res.results)
        assert env.now < 0.01  # logarithmic depth, microsecond latencies


class TestNonBlocking:
    """A send or receive started as its own process is MPI_Isend/MPI_Irecv:
    yielding the process is MPI_Wait."""

    def test_isend_irecv_overlap_compute(self):
        """Communication runs while the ranks 'compute' (timeout)."""
        def fn(ctx):
            if ctx.rank == 0:
                req = ctx.env.process(ctx.comm.send(1, "bulk", nbytes=320_000_000))  # ~100ms
                yield ctx.env.timeout(0.1)  # compute concurrently
                yield req
                return ctx.env.now
            elif ctx.rank == 1:
                req = ctx.env.process(ctx.comm.recv(0))
                yield ctx.env.timeout(0.1)
                msg = yield req
                assert msg == "bulk"
                return ctx.env.now
            return None

        env, res = run_ranks(2, fn, cores=1)
        # Overlapped: total ~= max(compute, transfer), not their sum.
        transfer = 320_000_064 / 3.2e9
        assert res.results[0] == pytest.approx(max(0.1, transfer), rel=0.1)

    def test_irecv_before_matching_send(self):
        def fn(ctx):
            if ctx.rank == 1:
                req = ctx.env.process(ctx.comm.recv(0, tag="x"))
                yield ctx.env.timeout(1.0)
                got = yield req
                return got
            yield ctx.env.timeout(2.0)
            yield from ctx.comm.send(1, "late", tag="x")
            return None

        _, res = run_ranks(2, fn)
        assert res.results[1] == "late"
