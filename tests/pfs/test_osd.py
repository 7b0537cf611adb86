"""Unit tests for stripe placement math and the OSD device model."""

import pytest

from repro.pfs.config import PfsConfig
from repro.pfs.osd import OsdPool, stripe_lanes
from repro.sim import Engine, Join
from repro.units import KiB


def brute_lanes(offset, length, su, width):
    """Byte-at-a-time reference for stripe_lanes totals."""
    per_lane = {}
    for b in range(offset, offset + length):
        lane = (b // su) % width
        per_lane[lane] = per_lane.get(lane, 0) + 1
    return per_lane


class TestStripeLanes:
    @pytest.mark.parametrize("offset,length", [
        (0, 64), (0, 1000), (100, 1), (64, 64), (63, 2),
        (0, 64 * 8), (10, 64 * 8), (64 * 7, 200), (64 * 16 + 5, 64 * 3),
    ])
    def test_bytes_per_lane_match_reference(self, offset, length):
        su, width = 64, 8
        got = {lane: n for lane, _, n in stripe_lanes(offset, length, su, width)}
        assert got == brute_lanes(offset, length, su, width)

    def test_total_bytes_conserved(self):
        for offset, length in [(0, 12345), (777, 9999), (63, 65)]:
            lanes = stripe_lanes(offset, length, 64, 8)
            assert sum(n for _, _, n in lanes) == length

    def test_object_offsets(self):
        # su=64, width=4: byte 0 -> lane0 obj 0; byte 256 (unit 4) -> lane0 obj 64.
        lanes = dict((l, o) for l, o, _ in stripe_lanes(0, 64, 64, 4))
        assert lanes == {0: 0}
        lanes = dict((l, o) for l, o, _ in stripe_lanes(256, 64, 64, 4))
        assert lanes == {0: 64}
        # Mid-unit start: byte 70 is unit 1 (lane 1), 6 bytes into it.
        lanes = {l: o for l, o, _ in stripe_lanes(70, 10, 64, 4)}
        assert lanes == {1: 6}

    def test_sequential_writes_are_object_sequential(self):
        """Consecutive file ranges produce consecutive object ranges per lane."""
        su, width = 64, 4
        ends = {}
        for i in range(16):
            for lane, obj_off, n in stripe_lanes(i * 128, 128, su, width):
                if lane in ends:
                    assert obj_off == ends[lane], f"lane {lane} jumped"
                ends[lane] = obj_off + n

    def test_zero_length(self):
        assert stripe_lanes(0, 0, 64, 8) == []

    def test_width_one(self):
        assert stripe_lanes(10, 100, 64, 1) == [(0, 10, 100)]


def one_osd_pool(env, **kw):
    """A one-OSD, width-1 pool: each io_events call is one device request,
    on object ``file_uid * 64`` at the file offset."""
    return OsdPool(env, PfsConfig(n_osds=1, stripe_width=1, **kw))


def io(pool, file_uid, offset, nbytes, **kw):
    """Submit one request to *pool*; returns the join that completes with it."""
    join = Join(pool.env)
    pool.io_events(file_uid, offset, nbytes, join, **kw)
    return join


class TestOsd:
    def cfg(self, **kw):
        defaults = dict(n_osds=4, stripe_unit=64 * KiB, stripe_width=2,
                        osd_bw=100e6, osd_seek_time=1e-3, osd_op_overhead=0.0)
        defaults.update(kw)
        return PfsConfig(**defaults)

    def pool1(self, env, **kw):
        defaults = dict(stripe_unit=64 * KiB, osd_bw=100e6, osd_seek_time=1e-3,
                        osd_op_overhead=0.0)
        defaults.update(kw)
        return one_osd_pool(env, **defaults)

    def test_sequential_access_skips_seek(self):
        env = Engine()
        pool = self.pool1(env)
        osd = pool.osds[0]

        def proc(env):
            yield io(pool, 1, 0, 1_000_000)
            t1 = env.now
            yield io(pool, 1, 1_000_000, 1_000_000)  # sequential: no seek
            return t1, env.now

        t1, t2 = env.run_process(proc(env))
        # First op pays one seek (1ms at 100MB/s = 100KB equivalent).
        assert t1 == pytest.approx(1e-3 + 0.01)
        assert t2 - t1 == pytest.approx(0.01)
        assert osd.seeks == 1

    def test_non_sequential_pays_seek(self):
        env = Engine()
        pool = self.pool1(env)

        def proc(env):
            yield io(pool, 1, 0, 1000)
            yield io(pool, 1, 500_000, 1000)  # jump
            yield io(pool, 1, 0, 1000)        # jump back

        env.run_process(proc(env))
        assert pool.osds[0].seeks == 3

    def test_interleaved_objects_tracked_separately(self):
        env = Engine()
        pool = self.pool1(env)

        def proc(env):
            yield io(pool, 1, 0, 100)
            yield io(pool, 2, 0, 100)
            yield io(pool, 1, 100, 100)  # still sequential within object 1
            yield io(pool, 2, 100, 100)

        env.run_process(proc(env))
        assert pool.osds[0].seeks == 2  # only the two first-touches

    def test_rmw_inflation(self):
        env = Engine()
        pool = self.pool1(env, osd_seek_time=0.0)

        def proc(env):
            yield io(pool, 1, 0, 1_000_000, inflate=3.0)
            return env.now

        assert env.run_process(proc(env)) == pytest.approx(0.03)

    def test_pool_lane_placement_is_stable_and_spread(self):
        env = Engine()
        pool = OsdPool(env, self.cfg())
        a = pool.lane_osd(10, 0)
        assert pool.lane_osd(10, 0) is a
        osds = {pool.lane_osd(uid, lane).index for uid in range(8) for lane in range(2)}
        assert len(osds) == 4  # all OSDs used across files

    def test_pool_io_events_cover_lanes(self):
        env = Engine()
        pool = OsdPool(env, self.cfg())

        def proc(env):
            join = Join(env)
            pool.io_events(5, 0, 10 * 64 * KiB, join)
            assert join.pending == 2  # stripe_width lanes
            yield join

        env.run_process(proc(env))
        assert pool.total_bytes_moved == 10 * 64 * KiB

    def test_full_width_stripe_puts_one_lane_on_each_osd(self):
        """stripe_width == n_osds, the widest stripe allowed: one I/O
        touching every lane is one request on every OSD."""
        env = Engine()
        pool = OsdPool(env, self.cfg(stripe_width=4))

        def proc(env):
            join = Join(env)
            pool.io_events(3, 0, 8 * 64 * KiB, join)
            assert join.pending == 4  # one job per lane
            yield join

        env.run_process(proc(env))
        assert [osd.requests for osd in pool.osds] == [1, 1, 1, 1]
        assert all(osd.bytes_moved == 2 * 64 * KiB for osd in pool.osds)


class TestReadaheadPollution:
    def pool1(self, env, waste):
        return one_osd_pool(env, stripe_unit=64 * KiB, osd_bw=100e6,
                            osd_seek_time=0.0, osd_op_overhead=0.0,
                            readahead_waste=waste)

    def test_interleaved_readers_pay_waste(self):
        env = Engine()
        pool = self.pool1(env, waste=1_000_000)
        osd = pool.osds[0]

        def proc(env):
            yield io(pool, 1, 0, 1000, client_id=7, is_read=True)
            t0 = env.now
            yield io(pool, 1, 500_000, 1000, client_id=8, is_read=True)  # switch
            return env.now - t0

        dt = env.run_process(proc(env))
        assert osd.stream_switches == 1
        assert dt == pytest.approx((1000 + 1_000_000) / 100e6)

    def test_single_reader_random_access_pays_no_waste(self):
        env = Engine()
        pool = self.pool1(env, waste=1_000_000)

        def proc(env):
            yield io(pool, 1, 0, 1000, client_id=7, is_read=True)
            yield io(pool, 1, 500_000, 1000, client_id=7, is_read=True)

        env.run_process(proc(env))
        assert pool.osds[0].stream_switches == 0

    def test_writes_never_pay_waste(self):
        env = Engine()
        pool = self.pool1(env, waste=1_000_000)

        def proc(env):
            yield io(pool, 1, 0, 1000, client_id=7, is_read=False)
            yield io(pool, 1, 500_000, 1000, client_id=8, is_read=False)

        env.run_process(proc(env))
        assert pool.osds[0].stream_switches == 0

    def test_disabled_by_default_config(self):
        env = Engine()
        pool = self.pool1(env, waste=0)

        def proc(env):
            yield io(pool, 1, 0, 1000, client_id=7, is_read=True)
            yield io(pool, 1, 500_000, 1000, client_id=8, is_read=True)

        env.run_process(proc(env))
        assert pool.osds[0].stream_switches == 0
