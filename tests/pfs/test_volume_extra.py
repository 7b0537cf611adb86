"""Additional Volume coverage: md cache, write-back edges."""

import pytest

from repro.pfs import Client, PatternData
from repro.pfs.presets import panfs
from repro.units import KiB, MiB
from tests.conftest import make_world


def world_client():
    w = make_world()
    return w, w.volume, Client(node=w.cluster.nodes[0], client_id=0)


class TestClientMetadataCache:
    def test_reopen_from_same_node_is_cheaper(self):
        w, vol, client = world_client()

        def proc(env):
            yield from vol.write_file(client, "/f", PatternData(1, 0, 10))
            t0 = env.now
            fh = yield from vol.open(client, "/f", "r")
            yield from fh.close()
            first = env.now - t0
            t0 = env.now
            fh = yield from vol.open(client, "/f", "r")
            yield from fh.close()
            second = env.now - t0
            return first, second

        first, second = w.env.run_process(proc(w.env))
        assert second < first

    def test_other_node_pays_full_open(self):
        w, vol, client = world_client()
        other = Client(node=w.cluster.nodes[1], client_id=9)

        def proc(env):
            yield from vol.write_file(client, "/f", PatternData(1, 0, 10))
            fh = yield from vol.open(client, "/f", "r")   # seeds node 0 cache
            yield from fh.close()
            t0 = env.now
            fh = yield from vol.open(other, "/f", "r")
            yield from fh.close()
            return env.now - t0

        dt = w.env.run_process(proc(w.env))
        full = vol.cfg.mds_latency + 0.35 / vol.cfg.mds_ops_per_sec \
            + vol.cfg.mds_latency + 0.15 / vol.cfg.mds_ops_per_sec
        assert dt == pytest.approx(full, rel=0.05)

    def test_drop_caches_resets_md_cache(self):
        w, vol, client = world_client()

        def open_close(env):
            fh = yield from vol.open(client, "/f", "r")
            yield from fh.close()
            return None

        def proc(env):
            yield from vol.write_file(client, "/f", PatternData(1, 0, 10))
            yield from open_close(env)
            w.drop_caches()
            t0 = env.now
            yield from open_close(env)
            return env.now - t0

        dt = w.env.run_process(proc(w.env))
        # Full (uncached) open cost again after the drop.
        assert dt > vol.cfg.mds_latency + 0.3 / vol.cfg.mds_ops_per_sec


class TestWriteBackEdges:
    def test_second_writer_disables_writeback(self):
        """The moment a file has two open writers, appends write through."""
        w, vol, client = world_client()
        other = Client(node=w.cluster.nodes[1], client_id=1)

        def proc(env):
            a = yield from vol.open(client, "/f", "w", create=True)
            b = yield from vol.open(other, "/f", "w")
            moved0 = vol.storage_net.bytes_moved
            yield from a.write(0, PatternData(1, 0, 64 * KiB))
            through = vol.storage_net.bytes_moved - moved0
            yield from a.close()
            yield from b.close()
            return through

        through = w.env.run_process(proc(w.env))
        assert through >= 64 * KiB  # not absorbed by the write-back buffer

    def test_non_contiguous_write_flushes_pending(self):
        w, vol, client = world_client()

        def proc(env):
            fh = yield from vol.open(client, "/f", "w", create=True)
            yield from fh.write(0, PatternData(1, 0, 100 * KiB))  # buffered
            moved0 = vol.storage_net.bytes_moved
            yield from fh.write(10 * MiB, PatternData(1, 0, 4 * KiB))  # jump
            moved = vol.storage_net.bytes_moved - moved0
            yield from fh.close()
            return moved

        moved = w.env.run_process(proc(w.env))
        # The jump forced the pending 100 KiB out plus its own bytes.
        assert moved >= 100 * KiB + 4 * KiB

    def test_close_flushes_remainder(self):
        w, vol, client = world_client()

        def proc(env):
            fh = yield from vol.open(client, "/f", "w", create=True)
            yield from fh.write(0, PatternData(1, 0, 100 * KiB))
            moved_before_close = vol.storage_net.bytes_moved
            yield from fh.close()
            return vol.storage_net.bytes_moved - moved_before_close

        flushed = w.env.run_process(proc(w.env))
        assert flushed >= 100 * KiB

    def test_writeback_disabled_config(self):
        w = make_world(pfs_cfg=panfs(writeback_bytes=0))
        vol = w.volume
        client = Client(node=w.cluster.nodes[0], client_id=0)

        def proc(env):
            fh = yield from vol.open(client, "/f", "w", create=True)
            moved0 = vol.storage_net.bytes_moved
            yield from fh.write(0, PatternData(1, 0, 4 * KiB))
            moved = vol.storage_net.bytes_moved - moved0
            yield from fh.close()
            return moved

        assert w.env.run_process(proc(w.env)) >= 4 * KiB
