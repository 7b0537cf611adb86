"""POSIX-style (FUSE-path) access to a PLFS mount: every call with ``comm=None``."""

from repro.mpi import run_job
from repro.pfs.data import LiteralData, PatternData


def solo(world, gen_fn, base=0):
    return run_job(world.env, world.cluster, 1, gen_fn,
                   client_id_base=base).results[0]


def read_all(mount, client, path):
    rh = yield from mount.open_read(client, path, None)
    view = yield from rh.read(0, rh.size)
    yield from rh.close()
    return view


class TestPosixFile:
    def test_sequential_write_read(self, world):
        m = world.mount

        def fn(ctx):
            fh = yield from m.open_write(ctx.client, "/f", None, truncate=True)
            yield from fh.write(0, LiteralData(b"hello "))
            yield from fh.write(6, LiteralData(b"world"))
            yield from m.close_write(fh, None)
            view = yield from read_all(m, ctx.client, "/f")
            return view.to_bytes()

        assert solo(world, fn) == b"hello world"

    def test_sparse_seek_write(self, world):
        m = world.mount

        def fn(ctx):
            fh = yield from m.open_write(ctx.client, "/f", None, truncate=True)
            yield from fh.write(1000, LiteralData(b"tail"))
            yield from m.close_write(fh, None)
            view = yield from read_all(m, ctx.client, "/f")
            return view.length, view.to_bytes()[:4]

        length, head = solo(world, fn)
        assert length == 1004
        assert head == b"\x00\x00\x00\x00"

    def test_append_mode(self, world):
        """Reopening without truncate keeps the bytes; appends land at EOF."""
        m = world.mount

        def fn(ctx):
            fh = yield from m.open_write(ctx.client, "/log", None, truncate=True)
            yield from fh.write(0, LiteralData(b"one"))
            yield from m.close_write(fh, None)
            fh = yield from m.open_write(ctx.client, "/log", None)
            st = yield from m.stat(ctx.client, "/log")
            assert st.size == 3
            yield from fh.write(st.size, LiteralData(b"two"))
            yield from m.close_write(fh, None)
            view = yield from read_all(m, ctx.client, "/log")
            return view.to_bytes()

        assert solo(world, fn) == b"onetwo"


class TestPosixNamespace:
    def test_two_processes_share_logical_file(self, world):
        """A FUSE-path writer and a separate reader process interoperate."""
        m = world.mount

        def writer(ctx):
            fh = yield from m.open_write(ctx.client, "/shared", None, truncate=True)
            yield from fh.write(0, PatternData(7, 0, 5000))
            yield from m.close_write(fh, None)

        run_job(world.env, world.cluster, 1, writer)

        def reader(ctx):
            view = yield from read_all(m, ctx.client, "/shared")
            return view.content_equal(PatternData(7, 0, 5000))

        assert solo(world, reader, base=99)
