"""Property-based tests for the storage models (locks, cache, striping)."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PageCache
from repro.pfs.config import PfsConfig
from repro.pfs.locks import RangeLockManager
from repro.pfs.osd import stripe_lanes
from repro.sim import Engine
from repro.units import MB, GiB, MiB


# --- striping ---------------------------------------------------------------

@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=1, max_value=5_000),
       st.sampled_from([1, 2, 3, 4, 8, 16]),
       st.sampled_from([64, 100, 1024, 4096]))
@settings(max_examples=300, deadline=None)
def test_stripe_lanes_partition_the_range(offset, length, width, su):
    lanes = stripe_lanes(offset, length, su, width)
    # Bytes conserved.
    assert sum(n for _, _, n in lanes) == length
    # Lane ids valid and unique.
    ids = [l for l, _, _ in lanes]
    assert len(set(ids)) == len(ids)
    assert all(0 <= l < width for l in ids)
    # Per-lane byte counts match a brute-force walk (bounded ranges only).
    if length <= 3000:
        brute = {}
        for b in range(offset, offset + length):
            lane = (b // su) % width
            brute[lane] = brute.get(lane, 0) + 1
        assert {l: n for l, _, n in lanes} == brute


@given(st.integers(min_value=0, max_value=50_000),
       st.lists(st.integers(min_value=1, max_value=2_000), min_size=1, max_size=10),
       st.sampled_from([2, 4, 8]),
       st.sampled_from([64, 512]))
@settings(max_examples=150, deadline=None)
def test_consecutive_ranges_stay_object_sequential(start, sizes, width, su):
    """Appending file ranges append per-lane object ranges (no gaps/overlap)."""
    ends = {}
    pos = start - start % su  # align the first write for a clean baseline
    for size in sizes:
        for lane, obj_off, n in stripe_lanes(pos, size, su, width):
            if lane in ends:
                assert obj_off == ends[lane]
            ends[lane] = obj_off + n
        pos += size


# --- page cache ----------------------------------------------------------------

class BlockLRU:
    """The per-block LRU the run-length PageCache must equal: one
    OrderedDict entry per resident ``(file_uid, block)``, walked block by
    block."""

    def __init__(self, capacity_bytes, block_size):
        self.bs = block_size
        self.capacity = max(0, capacity_bytes // block_size)
        self.blocks = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def insert(self, fuid, offset, length, full_blocks_only=False):
        if self.capacity == 0 or length <= 0:
            return
        bs = self.bs
        if full_blocks_only:
            blocks = range(-(-offset // bs), (offset + length) // bs)
        else:
            blocks = range(offset // bs, (offset + length - 1) // bs + 1)
        for b in blocks:
            key = (fuid, b)
            if key in self.blocks:
                self.blocks.move_to_end(key)
            else:
                self.blocks[key] = None
                if len(self.blocks) > self.capacity:
                    self.blocks.popitem(last=False)
                    self.evictions += 1

    def hit_bytes(self, fuid, offset, length):
        if length <= 0:
            return 0
        bs, hit = self.bs, 0
        for b in range(offset // bs, (offset + length - 1) // bs + 1):
            key = (fuid, b)
            if key in self.blocks:
                self.blocks.move_to_end(key)
                hit += min(offset + length, (b + 1) * bs) - max(offset, b * bs)
                self.hits += 1
            else:
                self.misses += 1
        return hit


CACHE_BS = 64
cache_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "fill", "hit"]),
              st.integers(min_value=0, max_value=3),                 # file
              st.integers(min_value=0, max_value=40 * CACHE_BS),     # offset
              st.integers(min_value=0, max_value=24 * CACHE_BS)),    # length
    max_size=60)


@given(cache_ops, st.integers(min_value=0, max_value=16))
@settings(max_examples=300, deadline=None)
def test_page_cache_matches_lru_reference(ops, capacity):
    """Multi-block ranges, read fills (``full_blocks_only``) and ranges
    longer than the whole cache: every result, counter and the full LRU
    order match the per-block model after every call."""
    cache = PageCache(capacity_bytes=capacity * CACHE_BS, block_size=CACHE_BS)
    ref = BlockLRU(capacity * CACHE_BS, CACHE_BS)
    for op, fuid, offset, length in ops:
        if op == "hit":
            assert cache.hit_bytes(fuid, offset, length) == \
                ref.hit_bytes(fuid, offset, length)
        else:
            cache.insert(fuid, offset, length, full_blocks_only=op == "fill")
            ref.insert(fuid, offset, length, full_blocks_only=op == "fill")
        assert (cache.hits, cache.misses, cache.evictions, len(cache)) == \
            (ref.hits, ref.misses, ref.evictions, len(ref.blocks))
        assert list(cache) == list(ref.blocks)


def test_insert_longer_than_free_space_evicts_its_own_range():
    """Blocks 5, 6 are resident; inserting 3..6 into a 3-block cache
    evicts 5 and then 6 before the walk reaches them, so both come back as
    fresh blocks: three evictions, where classifying the range up front
    would count one."""
    cache = PageCache(capacity_bytes=3 * CACHE_BS, block_size=CACHE_BS)
    ref = BlockLRU(3 * CACHE_BS, CACHE_BS)
    for c in (cache, ref):
        c.insert(1, 5 * CACHE_BS, 2 * CACHE_BS)
        c.insert(1, 3 * CACHE_BS, 4 * CACHE_BS)
    assert cache.evictions == ref.evictions == 3
    assert list(cache) == list(ref.blocks) == [(1, 4), (1, 5), (1, 6)]


@pytest.mark.parametrize("transfer", [8 * MiB, 8 * MB])
def test_interleaved_sequential_writers_hold_one_run_per_write(transfer):
    """16 ranks on one node append 8 MiB writes to their own files in
    turn: residency costs at most one run per write call, not one entry
    per block.  With 8 MB writes each write also re-touches the block it
    shares with the rank's previous write."""
    cache = PageCache(capacity_bytes=16 * GiB, block_size=MiB)
    writes = 0
    for k in range(6):
        for uid in range(16):
            cache.insert(uid, k * transfer, transfer)
            writes += 1
    runs = sum(len(r) for r in cache._files.values())
    assert len(cache) == 16 * -(-6 * transfer // MiB)
    assert runs <= writes


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=5_000))
@settings(max_examples=150, deadline=None)
def test_full_blocks_only_never_overclaims(offset, length):
    bs = 1024
    cache = PageCache(capacity_bytes=1 << 20, block_size=bs)
    cache.insert(1, offset, length, full_blocks_only=True)
    # Every byte reported resident must lie inside [offset, offset+length).
    hit = cache.hit_bytes(1, 0, 64 * 1024)
    lo = -(-offset // bs) * bs
    hi = ((offset + length) // bs) * bs
    assert hit == max(0, min(hi, 64 * 1024) - min(lo, 64 * 1024))


# --- lock manager -----------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),    # client
                          st.integers(min_value=0, max_value=900),  # offset
                          st.integers(min_value=1, max_value=300)),  # length
                min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_lock_acquisitions_always_terminate_and_balance(ops):
    """Arbitrary acquire/release sequences never deadlock the engine and
    leave every mutex free."""
    env = Engine()
    cfg = PfsConfig(lock_block=100, lock_revoke_time=1e-4, lock_grant_time=1e-5)
    mgr = RangeLockManager(env, cfg)

    def worker(env, client, offset, length):
        held = yield from mgr.acquire(client, 42, offset, length)
        yield env.timeout(1e-4)
        mgr.release(held)

    for client, offset, length in ops:
        env.process(worker(env, client, offset, length))
    env.run()  # DeadlockError would surface here as stuck processes
    for mutex in mgr._mutex.values():
        assert not mutex.locked
