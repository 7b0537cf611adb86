"""Remaining PlfsMount API coverage: logical namespace corners."""

import pytest

from repro.errors import FileExists, PLFSError
from repro.mpi import run_job
from repro.pfs.data import LiteralData, PatternData
from repro.plfs import PlfsMount
from tests.conftest import make_world

KB = 1000


def solo(world, gen_fn, base=0):
    return run_job(world.env, world.cluster, 1, gen_fn,
                   client_id_base=base).results[0]


class TestLogicalNamespace:
    def test_readdir_unions_federated_volumes(self):
        """Containers hash to different volumes; a logical listing sees all."""
        w = make_world(n_volumes=4, federation="container")

        def fn(ctx):
            yield from w.mount.mkdir(ctx.client, "/d")
            for i in range(12):
                yield from w.mount.create(ctx.client, f"/d/f{i}")
            names = yield from w.mount.readdir(ctx.client, "/d")
            return names

        names = solo(w, fn)
        assert names == sorted(f"f{i}" for i in range(12))
        # The containers really are spread over >1 volume.
        homes = {w.mount.layout(f"/d/f{i}").home_volume.name for i in range(12)}
        assert len(homes) > 1

    def test_stat_of_plain_directory(self, world):
        w = world

        def fn(ctx):
            yield from w.mount.mkdir(ctx.client, "/plain")
            st = yield from w.mount.stat(ctx.client, "/plain")
            return st

        st = solo(w, fn)
        assert st.is_dir and st.size == 0

    def test_create_non_exclusive_is_idempotent(self, world):
        w = world

        def fn(ctx):
            yield from w.mount.create(ctx.client, "/f")
            yield from w.mount.create(ctx.client, "/f")  # fine
            with pytest.raises(FileExists):
                yield from w.mount.create(ctx.client, "/f", exclusive=True)
            return True

        assert solo(w, fn)

    def test_exists_distinguishes_containers_from_dirs(self, world):
        w = world

        def fn(ctx):
            yield from w.mount.mkdir(ctx.client, "/dir")
            yield from w.mount.create(ctx.client, "/file")
            return w.mount.exists("/dir"), w.mount.exists("/file")

        is_dir_file, is_container = solo(w, fn)
        assert not is_dir_file   # a plain dir is not a logical file
        assert is_container

    def test_invalidate_index_cache(self, world):
        w = world

        def writer(ctx):
            fh = yield from w.mount.open_write(ctx.client, "/f", ctx.comm)
            yield from fh.write(0, PatternData(1, 0, 5 * KB))
            yield from w.mount.close_write(fh, ctx.comm)

        run_job(w.env, w.cluster, 2, writer)

        def reader(ctx):
            handle = yield from w.mount.open_read(ctx.client, "/f", None)
            yield from handle.close()
            return True

        solo(w, reader, base=50)
        w.mount.invalidate_index_cache()
        assert w.mount._index_cache == {}

    def test_mount_requires_volumes(self, world):
        with pytest.raises(PLFSError):
            PlfsMount(world.env, [])

    def test_unlink_then_recreate_fresh_generation(self, world):
        w = world

        def fn(ctx):
            fh = yield from w.mount.open_write(ctx.client, "/f", None)
            yield from fh.write(0, PatternData(1, 0, 8 * KB))
            yield from w.mount.close_write(fh, None)
            yield from w.mount.unlink(ctx.client, "/f")
            fh = yield from w.mount.open_write(ctx.client, "/f", None)
            yield from fh.write(0, PatternData(2, 0, 2 * KB))
            yield from w.mount.close_write(fh, None)
            rh = yield from w.mount.open_read(ctx.client, "/f", None)
            size = rh.size
            view = yield from rh.read(0, size)
            yield from rh.close()
            return size, view.content_equal(PatternData(2, 0, 2 * KB))

        size, ok = solo(w, fn)
        assert size == 2 * KB and ok


class TestIndependentPath:
    """The FUSE-style path: every mount call with ``comm=None``."""

    def test_second_writer_extends_past_a_hole(self, world):
        w = world

        def first(ctx):
            fh = yield from w.mount.open_write(ctx.client, "/f", None, truncate=True)
            yield from fh.write(0, LiteralData(b"one"))
            yield from w.mount.close_write(fh, None)

        def second(ctx):
            # No truncate: the first writer's bytes survive this open.
            fh = yield from w.mount.open_write(ctx.client, "/f", None)
            st = yield from w.mount.stat(ctx.client, "/f")
            yield from fh.write(st.size + 1000, LiteralData(b"two"))
            yield from w.mount.close_write(fh, None)
            return st.size

        def reader(ctx):
            rh = yield from w.mount.open_read(ctx.client, "/f", None)
            view = yield from rh.read(0, rh.size)
            yield from rh.close()
            return view.to_bytes()

        solo(w, first)
        assert solo(w, second, base=10) == 3
        assert solo(w, reader, base=20) == b"one" + bytes(1000) + b"two"

    def test_stat_readdir_unlink(self, world):
        w = world

        def fn(ctx):
            yield from w.mount.mkdir(ctx.client, "/d")
            fh = yield from w.mount.open_write(ctx.client, "/d/a", None)
            yield from fh.write(0, LiteralData(b"abc"))
            yield from w.mount.close_write(fh, None)
            st = yield from w.mount.stat(ctx.client, "/d/a")
            names = yield from w.mount.readdir(ctx.client, "/d")
            yield from w.mount.unlink(ctx.client, "/d/a")
            return st.size, names, w.mount.exists("/d/a")

        assert solo(w, fn) == (3, ["a"], False)
