"""Integration-ish tests of the Volume facade (state + charged time)."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.errors import BadFileHandle, FileNotFound, InvalidArgument, PermissionDenied
from repro.pfs import Client, PatternData, Volume, panfs
from repro.pfs.config import PfsConfig
from repro.sim import Engine
from repro.units import KiB, MiB


def make_world(cfg=None, n_nodes=4):
    env = Engine()
    spec = ClusterSpec(name="t", n_nodes=n_nodes, node=NodeSpec(cores=4))
    cluster = Cluster(env, spec)
    vol = Volume(env, cluster, cfg or panfs())
    client = Client(node=cluster.nodes[0], client_id=0)
    return env, cluster, vol, client


class TestVolumeBasics:
    def test_write_read_roundtrip(self):
        env, _, vol, client = make_world()
        spec = PatternData(1, 0, 256 * KiB)

        def proc(env):
            fh = yield from vol.open(client, "/f", "w", create=True)
            yield from fh.write(0, spec)
            yield from fh.close()
            view = yield from vol.read_file(client, "/f")
            return view

        view = env.run_process(proc(env))
        assert view.content_equal(spec)
        assert env.now > 0

    def test_open_missing_without_create(self):
        env, _, vol, client = make_world()

        def proc(env):
            yield from vol.open(client, "/nope", "r")

        with pytest.raises(FileNotFound):
            env.run_process(proc(env))

    def test_mode_enforcement(self):
        env, _, vol, client = make_world()

        def proc(env):
            fh = yield from vol.open(client, "/f", "w", create=True)
            yield from fh.write(0, PatternData(1, 0, 10))
            with pytest.raises(PermissionDenied):
                yield from fh.read(0, 10)
            yield from fh.close()
            rh = yield from vol.open(client, "/f", "r")
            with pytest.raises(PermissionDenied):
                yield from rh.write(0, PatternData(1, 0, 10))
            yield from rh.close()

        env.run_process(proc(env))

    def test_closed_handle_rejected(self):
        env, _, vol, client = make_world()

        def proc(env):
            fh = yield from vol.open(client, "/f", "w", create=True)
            yield from fh.close()
            with pytest.raises(BadFileHandle):
                yield from fh.write(0, PatternData(1, 0, 1))
            with pytest.raises(BadFileHandle):
                yield from fh.close()

        env.run_process(proc(env))

    def test_truncate_on_open(self):
        env, _, vol, client = make_world()

        def proc(env):
            yield from vol.write_file(client, "/f", PatternData(1, 0, 1000))
            fh = yield from vol.open(client, "/f", "w", truncate=True)
            assert fh.size() == 0
            yield from fh.close()

        env.run_process(proc(env))

    def test_stat_and_readdir(self):
        env, _, vol, client = make_world()

        def proc(env):
            yield from vol.makedirs(client, "/d/e")
            yield from vol.write_file(client, "/d/f", PatternData(1, 0, 123))
            st = yield from vol.stat(client, "/d/f")
            listing = yield from vol.readdir(client, "/d")
            return st, listing

        st, listing = env.run_process(proc(env))
        assert st.size == 123 and not st.is_dir
        assert listing == ["e", "f"]

    def test_unlink_and_rename(self):
        env, _, vol, client = make_world()

        def proc(env):
            yield from vol.write_file(client, "/a", PatternData(1, 0, 10))
            yield from vol.rename(client, "/a", "/b")
            assert vol.ns.exists("/b") and not vol.ns.exists("/a")
            yield from vol.unlink(client, "/b")
            assert not vol.ns.exists("/b")

        env.run_process(proc(env))

    def test_invalid_mode(self):
        env, _, vol, client = make_world()

        def proc(env):
            yield from vol.open(client, "/f", "x", create=True)

        with pytest.raises(InvalidArgument):
            env.run_process(proc(env))


class TestVolumeTiming:
    def test_large_write_bandwidth_bounded_by_storage_net(self):
        """A 100 MiB streaming write lands near the 1.25 GB/s pipe rate."""
        env, _, vol, client = make_world()
        nbytes = 100 * MiB

        def proc(env):
            fh = yield from vol.open(client, "/big", "w", create=True)
            # Full-stripe aligned: no RMW.
            chunk = vol.cfg.full_stripe * 32
            off = 0
            while off < nbytes:
                n = min(chunk, nbytes - off)
                yield from fh.write(off, PatternData(1, off, n))
                off += n
            yield from fh.close()
            return env.now

        t = env.run_process(proc(env))
        ideal = nbytes / 1.25e9
        assert ideal < t < 4 * ideal

    def test_cached_reread_beats_storage(self):
        """Read-after-write from the same node is served from page cache."""
        env, _, vol, client = make_world()
        nbytes = 8 * MiB

        def proc(env):
            yield from vol.write_file(client, "/f", PatternData(1, 0, nbytes))
            t0 = env.now
            yield from vol.read_file(client, "/f")
            warm = env.now - t0
            client.node.page_cache.clear()
            t0 = env.now
            yield from vol.read_file(client, "/f")
            cold = env.now - t0
            return warm, cold

        warm, cold = env.run_process(proc(env))
        assert warm < cold / 3

    def test_remote_node_misses_cache(self):
        env, cluster, vol, client = make_world()
        other = Client(node=cluster.nodes[1], client_id=1)
        nbytes = 8 * MiB

        def proc(env):
            yield from vol.write_file(client, "/f", PatternData(1, 0, nbytes))
            t0 = env.now
            view = yield from vol.read_file(other, "/f")
            return env.now - t0, view

        dt, view = env.run_process(proc(env))
        assert dt > nbytes / 1.25e9 * 0.5  # paid the storage path
        assert view.content_equal(PatternData(1, 0, nbytes))

    def test_cold_read_into_an_empty_cache_counts_its_misses(self):
        """A read on a node whose cache holds nothing still consults it:
        every block is a miss, then the read fills them."""
        env, cluster, vol, client = make_world()
        other = Client(node=cluster.nodes[1], client_id=1)
        cache = other.node.page_cache

        def proc(env):
            yield from vol.write_file(client, "/f", PatternData(1, 0, 8 * MiB))
            assert len(cache) == 0
            yield from vol.read_file(other, "/f")

        env.run_process(proc(env))
        assert (cache.hits, cache.misses, len(cache)) == (0, 8, 8)

    def test_partial_stripe_write_pays_rmw(self):
        env, _, vol, client = make_world()
        fs = vol.cfg.full_stripe

        def timed_write(env, path, offset, nbytes):
            fh = yield from vol.open(client, path, "w", create=True)
            t0 = env.now
            yield from fh.write(offset, PatternData(1, 0, nbytes))
            dt = env.now - t0
            yield from fh.close()
            return dt

        def proc(env):
            aligned = yield from timed_write(env, "/a", 0, fs * 8)
            partial = yield from timed_write(env, "/b", fs // 2, fs * 8)
            return aligned, partial

        aligned, partial = env.run_process(proc(env))
        assert partial > aligned * 1.5

    def test_bulk_read_files_returns_contents(self):
        env, _, vol, client = make_world()

        def proc(env):
            for i in range(5):
                yield from vol.write_file(client, f"/f{i}", PatternData(i, 0, 1000))
            views = yield from vol.bulk_read_files(client, [f"/f{i}" for i in range(5)])
            return views

        views = env.run_process(proc(env))
        assert len(views) == 5
        for i, v in enumerate(views):
            assert v.content_equal(PatternData(i, 0, 1000))

    def test_bulk_read_charges_less_wall_time_than_serial(self):
        """The batch API must charge comparable aggregate demand (not free)."""
        env, _, vol, client = make_world()

        def proc(env):
            for i in range(20):
                yield from vol.write_file(client, f"/f{i}", PatternData(i, 0, 50_000))
            vol.cluster.drop_caches()
            vol._md_cache.clear()
            t0 = env.now
            yield from vol.bulk_read_files(client, [f"/f{i}" for i in range(20)])
            return env.now - t0

        dt = env.run_process(proc(env))
        assert dt > 0.002  # 20 files x per-file device overhead is not free

    def test_bulk_read_coalesces_concurrent_node_fetches(self):
        """Two ranks on one node slurping the same files: one storage fetch."""
        env, cluster, vol, client = make_world()
        other = Client(node=cluster.nodes[0], client_id=7)
        times = {}

        def setup(env):
            for i in range(30):
                yield from vol.write_file(client, f"/f{i}", PatternData(i, 0, 50_000))
            vol.cluster.drop_caches()
            vol._md_cache.clear()

        env.run_process(setup(env))
        paths = [f"/f{i}" for i in range(30)]

        def reader(env, who, c):
            t0 = env.now
            yield from vol.bulk_read_files(c, paths)
            times[who] = env.now - t0

        moved_before = vol.storage_net.bytes_moved
        env.process(reader(env, "a", client))
        env.process(reader(env, "b", other))
        env.run()
        moved = vol.storage_net.bytes_moved - moved_before
        # Only one copy of the 1.5 MB of file data crossed the network.
        assert moved < 2 * 30 * 50_000


class TestConcurrency:
    def test_n1_shared_file_slower_than_nn(self):
        """The core premise: strided N-1 writes collapse vs N-N (§II)."""
        nprocs, per_proc, rec = 16, 2 * MiB, 47 * KiB

        def run(pattern):
            env, cluster, vol, _ = make_world(n_nodes=4)
            done = []

            def writer(env, rank):
                client = Client(node=cluster.node_for_rank(rank, nprocs), client_id=rank)
                if pattern == "n1":
                    fh = yield from vol.open(client, "/shared", "w", create=True)
                else:
                    fh = yield from vol.open(client, f"/file.{rank}", "w", create=True)
                off, written = rank * rec, 0
                while written < per_proc:
                    base = off if pattern == "n1" else written
                    yield from fh.write(base, PatternData(rank, written, rec))
                    off += nprocs * rec
                    written += rec
                yield from fh.close()
                done.append(env.now)

            for r in range(nprocs):
                env.process(writer(env, r))
            env.run()
            return max(done)

        t_n1 = run("n1")
        t_nn = run("nn")
        assert t_n1 > 3 * t_nn, f"N-1 {t_n1:.2f}s should be >> N-N {t_nn:.2f}s"
