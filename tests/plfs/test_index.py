"""Unit tests for PLFS index records, serialization, and merging."""

import struct

import numpy as np
import pytest

from repro.errors import InvalidArgument, PLFSError
from repro.pfs.data import DataView, LiteralData
from repro.pfs.extents import RECORD, RECORD_BYTES
from repro.plfs.index import GlobalIndex, WriterIndex

PAIR = struct.Struct("<qq")


def packed(rows):
    """Index records (start, length, src_off, stamp, src, pad), packed."""
    return b"".join(RECORD.pack(*row) for row in rows)


def media(*rows):
    """On-media bytes of index records."""
    return DataView.of(LiteralData(packed(rows)))


def global_blob(records, writers):
    """A global.index file: (records, writers) header, records, writer table."""
    head = PAIR.pack(len(records), len(writers))
    wtab = b"".join(PAIR.pack(*row) for row in sorted(writers.items()))
    return DataView.of(LiteralData(head + packed(records) + wtab))


class TestWriterIndex:
    def test_record_and_sizes(self):
        w = WriterIndex(writer_id=3, node_id=1)
        w.record(0, 100, physical=0, stamp=1.0)
        w.record(500, 100, physical=100, stamp=2.0)
        assert len(w) == 2
        assert w.nbytes == 96
        assert w.journal.size == 600

    def test_serialize_parse_roundtrip(self):
        w = WriterIndex(writer_id=7, node_id=2)
        for i in range(10):
            w.record(i * 1000, 500, physical=i * 500, stamp=float(i))
        blob = w.serialize()
        assert blob.length == 10 * RECORD_BYTES
        gi = WriterIndex.parse(DataView.of(blob), writer_id=7, node_id=2)
        assert len(gi) == 10
        assert gi.writers == {7: 2}
        segs = list(gi.flatten().segments())
        assert segs[0] == (0, 500, 7, 0)
        assert segs[-1] == (9000, 9500, 7, 4500)

    def test_parse_rejects_misaligned(self):
        with pytest.raises(PLFSError):
            WriterIndex.parse(DataView.of(LiteralData(b"x" * 47)), 0, 0)
        whole = media((0, 10, 0, 1.0, 1, 0), (10, 10, 10, 1.0, 1, 0)).to_bytes()
        with pytest.raises(PLFSError):
            WriterIndex.parse(DataView.of(LiteralData(whole[:-1])), 1, 0)

    def test_empty_serialize(self):
        w = WriterIndex(writer_id=1, node_id=0)
        gi = WriterIndex.parse(DataView.of(w.serialize()), 1, 0)
        assert len(gi) == 0

    def test_serialize_is_the_journal_records(self):
        w = WriterIndex(writer_id=4, node_id=1, merge=True)
        w.record(0, 10, physical=0, stamp=1.0)
        w.record(10, 10, physical=10, stamp=2.0)   # coalesces into record 0
        w.record(100, 5, physical=20, stamp=3.0)
        blob = w.serialize().to_bytes()
        assert blob == w.journal.tobytes()
        assert list(RECORD.iter_unpack(blob)) == [(0, 20, 0, 1.0, 4, 0),
                                                  (100, 5, 20, 3.0, 4, 0)]
        gi = WriterIndex.parse(DataView.of(w.serialize()), writer_id=4, node_id=1)
        assert list(gi.flatten().segments()) == list(w.journal.flatten().segments())
        assert gi.journal.tobytes() == w.journal.tobytes()

    def test_spilled_ranges_are_slices_of_the_whole(self):
        w = WriterIndex(writer_id=2, node_id=0)
        for i in range(7):
            w.record(i * 100, 50, physical=i * 50, stamp=float(i))
        whole = w.serialize().to_bytes()
        spills = [w.serialize_range(lo, hi).to_bytes()
                  for lo, hi in ((0, 3), (3, 4), (4, 7))]
        assert spills[1] == whole[3 * RECORD_BYTES:4 * RECORD_BYTES]
        assert b"".join(spills) == whole

    def test_parse_attributes_records_to_the_named_writer(self):
        gi = WriterIndex.parse(media((0, 10, 5, 1.0, 99, 0)), writer_id=3, node_id=1)
        assert gi.writers == {3: 1}
        assert list(gi.flatten().segments()) == [(0, 10, 3, 5)]

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_parse_rejects_a_negative_field(self, field):
        row = [0, 10, 0, 1.0, 1, 0]
        row[field] = -1
        with pytest.raises(InvalidArgument):
            WriterIndex.parse(media(tuple(row)), 1, 0)

    def test_parse_drops_zero_length_records(self):
        gi = WriterIndex.parse(media((0, 0, 0, 1.0, 1, 0), (5, 10, 0, 1.0, 1, 0),
                                     (50, 0, 10, 2.0, 1, 0)), 1, 0)
        assert len(gi) == 1
        assert gi.logical_size == 15


class TestGlobalIndex:
    def build(self):
        gi = GlobalIndex()
        w1 = WriterIndex(writer_id=1, node_id=0)
        w1.record(0, 100, physical=0, stamp=1.0)
        w2 = WriterIndex(writer_id=2, node_id=1)
        w2.record(100, 100, physical=0, stamp=1.0)
        gi.merge_writer(w1)
        gi.merge_writer(w2)
        return gi

    def test_merge_writers(self):
        gi = self.build()
        assert gi.logical_size == 200
        assert gi.writers == {1: 0, 2: 1}
        assert list(gi.flatten().segments()) == [(0, 100, 1, 0), (100, 200, 2, 0)]

    def test_overwrite_resolution_by_stamp(self):
        gi = GlobalIndex()
        early = WriterIndex(writer_id=1, node_id=0)
        early.record(0, 100, physical=0, stamp=1.0)
        late = WriterIndex(writer_id=2, node_id=0)
        late.record(50, 100, physical=0, stamp=2.0)
        gi.merge_writer(early)
        gi.merge_writer(late)
        assert list(gi.flatten().segments()) == [(0, 50, 1, 0), (50, 150, 2, 0)]

    def test_tie_broken_by_writer_id(self):
        gi = GlobalIndex()
        for wid in (5, 3):
            w = WriterIndex(writer_id=wid, node_id=0)
            w.record(0, 10, physical=0, stamp=1.0)
            gi.merge_writer(w)
        assert list(gi.flatten().segments()) == [(0, 10, 5, 0)]

    def test_serialize_deserialize_roundtrip(self):
        gi = self.build()
        w3 = WriterIndex(writer_id=3, node_id=2)
        w3.record(50, 100, physical=0, stamp=2.0)
        gi.merge_writer(w3)
        blob = gi.serialize()
        assert blob.length == 16 + gi.nbytes
        gi2 = GlobalIndex.deserialize(DataView.of(blob))
        assert gi2.writers == gi.writers
        assert gi2.journal.tobytes() == gi.journal.tobytes()
        assert gi2.logical_size == gi.logical_size
        assert list(gi2.flatten().segments()) == list(gi.flatten().segments())
        assert gi2.serialize().to_bytes() == blob.to_bytes()

    def test_empty_serialize_deserialize(self):
        gi = GlobalIndex.deserialize(DataView.of(GlobalIndex().serialize()))
        assert len(gi) == 0 and gi.writers == {}

    def test_deserialize_rejects_a_partial_record(self):
        good = global_blob([(0, 10, 0, 1.0, 1, 0)], {1: 0}).to_bytes()
        head = PAIR.pack(1, 0)
        with pytest.raises(PLFSError):
            GlobalIndex.deserialize(DataView.of(LiteralData(
                head + good[16:16 + RECORD_BYTES - 1])))

    @pytest.mark.parametrize("field", ["start", "length", "src_off"])
    def test_deserialize_rejects_a_negative_field(self, field):
        row = dict(start=0, length=10, src_off=0)
        row[field] = -1
        blob = global_blob([(row["start"], row["length"], row["src_off"], 1.0, 1, 0)],
                           {1: 0})
        with pytest.raises(InvalidArgument):
            GlobalIndex.deserialize(blob)

    def test_deserialize_drops_zero_length_records(self):
        gi = GlobalIndex.deserialize(global_blob(
            [(0, 0, 0, 1.0, 1, 0), (5, 10, 0, 1.0, 2, 0)], {1: 0, 2: 0}))
        assert len(gi) == 1
        assert list(gi.flatten().segments()) == [(5, 15, 2, 0)]

    def test_deserialize_rejects_garbage(self):
        with pytest.raises(PLFSError):
            GlobalIndex.deserialize(DataView.of(LiteralData(b"short")))
        good = self.build().serialize()
        bad = LiteralData(good.to_bytes()[:-8])
        with pytest.raises(PLFSError):
            GlobalIndex.deserialize(DataView.of(bad))
        negative = PAIR.pack(-1, 3)  # sizes add up to 16
        with pytest.raises(PLFSError):
            GlobalIndex.deserialize(DataView.of(LiteralData(negative)))

    def test_merged_classmethod(self):
        parts = []
        for wid in range(4):
            w = WriterIndex(writer_id=wid, node_id=wid % 2)
            w.record(wid * 10, 10, physical=0, stamp=1.0)
            g = GlobalIndex()
            g.merge_writer(w)
            parts.append(g)
        gi = GlobalIndex.merged(parts)
        assert len(gi) == 4
        assert gi.logical_size == 40
        assert set(gi.writers) == {0, 1, 2, 3}

    def test_nbytes_counts_writer_table(self):
        gi = self.build()
        assert gi.nbytes == 2 * 48 + 2 * 16

    def test_large_roundtrip(self):
        gi = GlobalIndex()
        rng = np.random.default_rng(0)
        for wid in range(16):
            w = WriterIndex(writer_id=wid, node_id=wid % 4)
            off = int(rng.integers(0, 1 << 30))
            for i in range(100):
                w.record(off + i * 4096 * 16 + wid * 4096, 4096,
                         physical=i * 4096, stamp=float(i))
            gi.merge_writer(w)
        blob = gi.serialize()
        gi2 = GlobalIndex.deserialize(DataView.of(blob))
        assert len(gi2) == 1600
        assert list(gi2.flatten().segments()) == list(gi.flatten().segments())
