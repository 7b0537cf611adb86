"""Property-based tests for the storage models (locks, cache, striping)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PageCache
from repro.pfs.config import PfsConfig
from repro.pfs.locks import RangeLockManager
from repro.pfs.osd import stripe_lanes
from repro.sim import Engine


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

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),      # file
                          st.integers(min_value=0, max_value=64),     # block
                          st.booleans()),                             # insert?
                max_size=120),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=150, deadline=None)
def test_page_cache_matches_lru_reference(ops, capacity):
    bs = 1024
    cache = PageCache(capacity_bytes=capacity * bs, block_size=bs)
    ref = []  # list of keys, LRU first

    def touch(key):
        if key in ref:
            ref.remove(key)
            ref.append(key)
            return True
        return False

    for fuid, block, is_insert in ops:
        key = (fuid, block)
        if is_insert:
            cache.insert(fuid, block * bs, bs)
            if not touch(key):
                ref.append(key)
                if len(ref) > capacity:
                    ref.pop(0)
        else:
            hit = cache.hit_bytes(fuid, block * bs, bs)
            assert (hit == bs) == touch(key)
    assert len(cache) == len(ref)


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
