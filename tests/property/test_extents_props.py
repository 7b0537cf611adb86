"""Property-based tests (hypothesis) for extent resolution.

The extent journal is the correctness heart of both the simulated PFS and
the PLFS index; these properties pin its semantics against a naive
per-byte reference model under arbitrary record streams.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.pfs.extents import HOLE, RECORD, ExtentJournal

MAX_POS = 2000

records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MAX_POS - 1),   # start
        st.integers(min_value=1, max_value=300),           # length
        st.integers(min_value=0, max_value=9),             # src
        st.integers(min_value=0, max_value=10_000),        # src_off
        st.floats(min_value=0, max_value=100, allow_nan=False),  # stamp
    ),
    max_size=40,
)


def reference_model(recs):
    """Per-byte last-writer-wins resolution: (owner index or -1) per byte."""
    size = max((s + ln for s, ln, *_ in recs), default=0)
    owner = np.full(size, -1, dtype=np.int64)
    # Stable sort by (stamp, src, arrival): later wins.
    order = sorted(range(len(recs)), key=lambda i: (recs[i][4], recs[i][2], 0))
    for i in order:
        s, ln, *_ = recs[i]
        owner[s:s + ln] = i
    return owner


def build(recs):
    j = ExtentJournal()
    for s, ln, src, soff, stamp in recs:
        j.append(s, ln, src, soff, stamp=stamp)
    return j


def packed(recs):
    """The records in the journal's on-media layout."""
    return b"".join(RECORD.pack(s, ln, soff, stamp, src, 0)
                    for s, ln, src, soff, stamp in recs)


# Record sets that a sort-order or a tie-break slip would resolve wrongly.
EQUAL_STARTS = [(10, 20, 1, 0, 0.0), (10, 5, 2, 100, 1.0)]       # newer, shorter
EQUAL_STARTS_OLDER_LAST = [(10, 5, 2, 100, 1.0), (10, 20, 1, 0, 0.0)]
EQUAL_STARTS_AND_LENGTHS = [(0, 8, 3, 0, 2.0), (0, 8, 1, 50, 1.0), (0, 8, 2, 90, 3.0)]
OUT_OF_ORDER = [(100, 10, 1, 0, 0.0), (0, 10, 2, 50, 1.0), (50, 10, 3, 7, 2.0)]
TIED = [(0, 10, 1, 0, 1.0), (5, 10, 1, 100, 1.0)]  # same (stamp, src): later wins


@st.composite
def distinct_priority_records(draw):
    """Records whose (stamp, src) pairs are unique — resolution is total.

    Records i and i + 11 share a stamp; their sources differ mod 4, and
    the drawn part decides which of them wins the tie.
    """
    recs = draw(records)
    out = []
    for i, (s, ln, src, soff, _stamp) in enumerate(recs):
        out.append((s, ln, 4 * src + i // 11, soff, float(i % 11)))
    return out


@given(distinct_priority_records())
@example(EQUAL_STARTS)
@example(EQUAL_STARTS_OLDER_LAST)
@example(EQUAL_STARTS_AND_LENGTHS)
@example(OUT_OF_ORDER)
@settings(max_examples=200, deadline=None)
def test_flatten_covers_exactly_the_written_bytes(recs):
    j = build(recs)
    ref = reference_model(recs)
    covered = np.zeros(len(ref), dtype=bool)
    for s, e, _src, _off in j.flatten().segments():
        assert not covered[s:e].any(), "segments overlap"
        covered[s:e] = True
    assert np.array_equal(covered, ref != -1)


@given(distinct_priority_records())
@example(EQUAL_STARTS)
@example(EQUAL_STARTS_OLDER_LAST)
@example(EQUAL_STARTS_AND_LENGTHS)
@example(OUT_OF_ORDER)
@example(TIED)
@settings(max_examples=100, deadline=None)
def test_segment_sources_match_reference(recs):
    j = build(recs)
    ref = reference_model(recs)
    for s, e, src, src_off in j.flatten().segments():
        winners = set(ref[s:e].tolist())
        assert len(winners) == 1, "segment spans multiple reference winners"
        w = winners.pop()
        rs, rl, rsrc, rsoff, *_ = recs[w]
        assert rsrc == src
        assert src_off == rsoff + (s - rs)


@given(distinct_priority_records(),
       st.integers(min_value=0, max_value=MAX_POS),
       st.integers(min_value=0, max_value=500))
@settings(max_examples=150, deadline=None)
def test_query_tiles_exactly(recs, offset, length):
    j = build(recs)
    segs = j.flatten().query(offset, length)
    pos = offset
    for s, e, src, _ in segs:
        assert s == pos, "gap or overlap in query tiling"
        assert e > s
        pos = e
    assert pos == offset + length or (length == 0 and not segs)


@given(distinct_priority_records(),
       st.integers(min_value=0, max_value=MAX_POS + 400),
       st.integers(min_value=0, max_value=500))
@example([], 0, 100)                                            # empty map
@example([(0, 10, 1, 0, 0.0)], 5, 0)                            # zero length
@example([(0, 10, 1, 0, 0.0)], 4, 30)                           # runs past EOF
@example([(0, 10, 1, 0, 0.0)], 50, 10)                          # starts past EOF
@example([(10, 10, 1, 0, 0.0)], 0, 15)                          # leading hole
@example([(0, 100, 3, 7, 0.0)], 40, 20)                         # inside one row
@example([(0, 10, 1, 0, 0.0), (5, 10, 2, 100, 1.0)], 0, 20)     # overlap
@example([(0, 30, 1, 0, 1.0), (10, 5, 2, 100, 0.0)], 8, 10)     # hidden
@example([(0, 10, 2, 0, 1.0), (5, 10, 1, 100, 1.0)], 0, 20)     # stamp tie: src 2 wins
@example(EQUAL_STARTS, 0, 40)                                    # equal starts
@example(EQUAL_STARTS_OLDER_LAST, 12, 10)
@example(EQUAL_STARTS_AND_LENGTHS, 0, 10)
@example(OUT_OF_ORDER, 0, 120)                                   # disjoint, unsorted
@example(TIED, 0, 20)
@settings(max_examples=300, deadline=None)
def test_query_sources_match_reference(recs, offset, length):
    """Every byte of a query maps where the per-byte model says: to the
    winning record's source at its own offset, or to HOLE if unwritten."""
    segs = build(recs).flatten().query(offset, length)
    ref = reference_model(recs)
    owner = np.full(offset + length, -1, dtype=np.int64)
    owner[:min(len(ref), len(owner))] = ref[:len(owner)]
    rec_start = np.array([r[0] for r in recs] + [0], dtype=np.int64)
    rec_src = np.array([r[2] for r in recs] + [HOLE], dtype=np.int64)
    rec_off = np.array([r[3] for r in recs] + [0], dtype=np.int64)
    pos = offset
    for s, e, src, src_off in segs:
        assert s == pos, "gap or overlap in query tiling"
        assert e > s
        w = owner[s:e]  # -1 indexes the HOLE sentinel row
        byte = np.arange(s, e)
        assert (rec_src[w] == src).all()
        if src == HOLE:
            assert (w == -1).all() and src_off == 0
        else:
            assert np.array_equal(rec_off[w] + (byte - rec_start[w]),
                                  src_off + (byte - s))
        pos = e
    assert pos == offset + length


@given(distinct_priority_records())
@settings(max_examples=100, deadline=None)
def test_flatten_idempotent_and_cached(recs):
    j = build(recs)
    f1 = j.flatten()
    f2 = j.flatten()
    assert f1 is f2  # cached
    j2 = build(recs)
    assert list(j2.flatten().segments()) == list(f1.segments())


@given(distinct_priority_records())
@settings(max_examples=100, deadline=None)
def test_size_equals_max_extent_end(recs):
    j = build(recs)
    expect = max((s + ln for s, ln, *_ in recs), default=0)
    assert j.size == expect
    ends = [e for _, e, _, _ in j.flatten().segments()]
    if ends:
        assert max(ends) == expect


@given(distinct_priority_records(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_extend_equivalent_to_interleaved_append(recs, split):
    """Merging k sub-journals == appending everything to one journal."""
    parts = [ExtentJournal() for _ in range(split)]
    whole = ExtentJournal()
    for i, (s, ln, src, soff, stamp) in enumerate(recs):
        parts[i % split].append(s, ln, src, soff, stamp=stamp)
        whole.append(s, ln, src, soff, stamp=stamp)
    merged = ExtentJournal()
    for p in parts:
        merged.extend(p)
    assert list(merged.flatten().segments()) == list(whole.flatten().segments())


@given(distinct_priority_records())
@example(OUT_OF_ORDER)
@example([(0, 0, 1, 0, 0.0), (5, 10, 2, 3, 1.0), (40, 0, 3, 9, 2.0)])  # zero lengths
@example([(0, 0, 1, 0, 0.0)])                                          # only zero
@example([(-1, 10, 1, 0, 0.0)])                                        # negative start
@example([(0, 10, 1, 0, 0.0), (20, -1, 2, 0, 1.0)])                    # negative length
@example([(0, 10, 1, -1, 0.0)])                                        # negative src_off
@settings(max_examples=60, deadline=None)
def test_extend_records_equivalent_to_append(recs):
    j2 = ExtentJournal()
    try:
        j1 = build(recs)
    except InvalidArgument:
        with pytest.raises(InvalidArgument):
            j2.extend_records(packed(recs))
        assert len(j2) == 0 and j2.size == 0
        return
    j2.extend_records(packed(recs))
    assert j2.tobytes() == j1.tobytes()
    assert j2.size == j1.size
    assert list(j2.flatten().segments()) == list(j1.flatten().segments())
