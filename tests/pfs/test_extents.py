"""Unit tests for the extent journal and last-writer-wins flattening."""

import numpy as np
import pytest

from repro.errors import InvalidArgument
from repro.pfs import extents
from repro.pfs.extents import HOLE, ExtentJournal


def segs(flat):
    return list(flat.segments())


class TestJournalBasics:
    def test_empty(self):
        j = ExtentJournal()
        assert len(j) == 0
        assert j.size == 0
        assert segs(j.flatten()) == []
        assert j.flatten().query(0, 100) == [(0, 100, HOLE, 0)]

    def test_single_record(self):
        j = ExtentJournal()
        j.append(10, 5, src=1, src_off=100)
        assert j.size == 15
        assert segs(j.flatten()) == [(10, 15, 1, 100)]

    def test_zero_length_ignored(self):
        j = ExtentJournal()
        j.append(10, 0, src=1, src_off=0)
        assert len(j) == 0

    def test_negative_rejected(self):
        j = ExtentJournal()
        with pytest.raises(InvalidArgument):
            j.append(-1, 5, 0, 0)
        with pytest.raises(InvalidArgument):
            j.append(0, -5, 0, 0)

    def test_disjoint_records_fast_path(self):
        j = ExtentJournal()
        j.append(20, 10, src=2, src_off=0)
        j.append(0, 10, src=1, src_off=50)
        assert segs(j.flatten()) == [(0, 10, 1, 50), (20, 30, 2, 0)]

    def test_size_tracks_max_end(self):
        j = ExtentJournal()
        j.append(100, 10, 0, 0)
        j.append(5, 10, 0, 0)
        assert j.size == 110

    def test_nbytes_counts_records(self):
        j = ExtentJournal()
        j.append(0, 10, 0, 0)
        j.append(10, 10, 0, 0)
        assert j.nbytes == 96


class TestLastWriterWins:
    def test_full_overwrite(self):
        j = ExtentJournal()
        j.append(0, 10, src=1, src_off=0, stamp=1.0)
        j.append(0, 10, src=2, src_off=0, stamp=2.0)
        assert segs(j.flatten()) == [(0, 10, 2, 0)]

    def test_partial_overwrite_splits(self):
        j = ExtentJournal()
        j.append(0, 100, src=1, src_off=0, stamp=1.0)
        j.append(40, 20, src=2, src_off=0, stamp=2.0)
        assert segs(j.flatten()) == [(0, 40, 1, 0), (40, 60, 2, 0), (60, 100, 1, 60)]

    def test_earlier_stamp_loses_even_if_appended_later(self):
        j = ExtentJournal()
        j.append(0, 10, src=2, src_off=0, stamp=5.0)
        j.append(0, 10, src=1, src_off=0, stamp=1.0)  # stale record arrives late
        assert segs(j.flatten()) == [(0, 10, 2, 0)]

    def test_src_breaks_stamp_ties(self):
        for order in ((1, 2), (2, 1)):
            j = ExtentJournal()
            for src in order:
                j.append(0, 10, src=src, src_off=src * 100, stamp=1.0)
            j.append(5, 10, src=0, src_off=0, stamp=1.0)  # overlaps, loses
            assert segs(j.flatten()) == [(0, 10, 2, 200), (10, 15, 0, 5)]

    def test_overlapping_chain(self):
        j = ExtentJournal()
        j.append(0, 30, src=1, src_off=0, stamp=1.0)
        j.append(20, 30, src=2, src_off=0, stamp=2.0)
        j.append(40, 30, src=3, src_off=0, stamp=3.0)
        assert segs(j.flatten()) == [(0, 20, 1, 0), (20, 40, 2, 0), (40, 70, 3, 0)]

    def test_src_offset_adjusted_on_split(self):
        j = ExtentJournal()
        j.append(0, 100, src=1, src_off=1000, stamp=1.0)
        j.append(50, 10, src=2, src_off=0, stamp=2.0)
        flat = j.flatten()
        assert segs(flat)[2] == (60, 100, 1, 1060)

    def test_against_naive_bytemap_model(self):
        """Randomized differential test versus a literal per-byte array."""
        rng = np.random.default_rng(1234)
        for _ in range(25):
            size = 500
            model = np.full(size, -1, dtype=np.int64)  # which record owns each byte
            j = ExtentJournal()
            n_rec = int(rng.integers(1, 40))
            rec_starts = []
            for rec in range(n_rec):
                start = int(rng.integers(0, size - 1))
                length = int(rng.integers(1, size - start))
                rec_starts.append(start)
                j.append(start, length, src=rec, src_off=start * 7, stamp=float(rec))
                model[start:start + length] = rec
            flat = j.flatten()
            rebuilt = np.full(size, -1, dtype=np.int64)
            for s, e, src, src_off in flat.segments():
                assert rebuilt[s:e].max(initial=-1) == -1, "segments overlap"
                rebuilt[s:e] = src
                # src_off = record base + intra-record displacement
                assert src_off == rec_starts[src] * 7 + (s - rec_starts[src])
            assert np.array_equal(rebuilt[: j.size], model[: j.size])

    def test_extend_merges_journals(self):
        a = ExtentJournal()
        a.append(0, 10, src=1, src_off=0, stamp=1.0)
        b = ExtentJournal()
        b.append(5, 10, src=2, src_off=0, stamp=2.0)
        a.extend(b)
        assert a.size == 15
        assert segs(a.flatten()) == [(0, 5, 1, 0), (5, 15, 2, 0)]


class TestQuery:
    def make(self):
        j = ExtentJournal()
        j.append(10, 10, src=1, src_off=0)   # [10,20)
        j.append(30, 10, src=2, src_off=5)   # [30,40)
        return j.flatten()

    def test_query_tiles_range_with_holes(self):
        flat = self.make()
        assert flat.query(0, 50) == [
            (0, 10, HOLE, 0),
            (10, 20, 1, 0),
            (20, 30, HOLE, 0),
            (30, 40, 2, 5),
            (40, 50, HOLE, 0),
        ]

    def test_query_mid_extent(self):
        flat = self.make()
        assert flat.query(15, 3) == [(15, 18, 1, 5)]

    def test_query_spanning_boundary(self):
        flat = self.make()
        assert flat.query(18, 14) == [(18, 20, 1, 8), (20, 30, HOLE, 0), (30, 32, 2, 5)]

    def test_query_zero_length(self):
        assert self.make().query(15, 0) == []

    def test_query_invalid(self):
        with pytest.raises(InvalidArgument):
            self.make().query(-1, 5)


class TestScale:
    def test_large_disjoint_flatten_is_fast_path(self, monkeypatch):
        def no_paint(*args):
            raise AssertionError("disjoint records must not be painted")

        monkeypatch.setattr(extents, "_paint", no_paint)
        j = ExtentJournal()
        n = 200_000
        starts = np.random.default_rng(0).permutation(n) * 10
        for s in starts[:1000]:  # appends are Python-level; keep the loop bounded
            j.append(int(s), 10, src=int(s) % 7, src_off=0)
        flat = j.flatten()
        assert len(flat) == 1000
        rows = segs(flat)
        assert all(e <= s for (_, e, _, _), (s, _, _, _) in zip(rows, rows[1:]))
