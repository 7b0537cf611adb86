"""Extent journals and flattened extent maps.

Both the simulated file system's file contents and PLFS's index share one
problem: a sequence of ``(logical_offset, length, source, source_offset,
timestamp)`` records, where later records overwrite earlier ones, must be
resolved into a flat, non-overlapping extent map for reads.  The paper's
PLFS defers exactly this work from write time to read time (§II), so the
resolution code is a first-class, shared component.

:class:`ExtentJournal` is the append-only record log.  It keeps its records
in one ``bytearray``, packed in the on-media index-record layout
(:data:`RECORD`), so a PLFS index log serializes and parses by
slicing, and a one-record journal costs about 200 bytes of host memory
(a 65,536-rank job holds a quarter of a million journals).
:meth:`ExtentJournal.flatten` resolves it:

* fast path — when records don't overlap (the overwhelmingly common
  checkpoint case, which the paper's footnote 1 also leans on), flattening
  reads the buffer as one ``array('q')`` and slices out its columns; when
  the records are not already in start order, it first sorts them as
  packed bytes keyed by start;
* slow path — genuine overlaps resolve *last-writer-wins by timestamp*
  (ties broken by the larger source, e.g. writer id) using
  elementary-interval painting with a union-find "next unpainted slot"
  walk, O(n α n) after the sort.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import add, itemgetter, le
from typing import Iterator, List, Optional, Tuple

from ..errors import InvalidArgument

__all__ = ["ExtentJournal", "FlatMap", "Segment", "HOLE", "RECORD",
           "RECORD_BYTES"]

HOLE = -1  # src value marking an unwritten gap in query results

# A resolved segment: [start, end) maps to source `src` at `src_off`.
Segment = Tuple[int, int, int, int]

# One record, in memory and on media: PLFS's C index entry (logical offset,
# length, physical offset, timestamp, writer id) padded to the weight of
# the real struct.  In a PLFS index, src is the writer and src_off the
# offset in its data log.
RECORD = struct.Struct("<qqqdqq")
RECORD_BYTES = RECORD.size
_WORDS = RECORD_BYTES // 8  # 8-byte fields per record
_HEAD = struct.Struct("<qq")  # a record's (start, length)
_ROW = struct.Struct(f"{RECORD_BYTES}s")  # a record as opaque bytes
_JOIN_ROWS = 1024  # sorted rows written back per join
_SWAP = sys.byteorder != "little"  # array columns are host-endian


def _column_words(raw, code: str = "q") -> array:
    """Packed records as one flat ``array``, :data:`_WORDS` fields each."""
    words = array(code)
    words.frombytes(raw)
    if _SWAP:
        words.byteswap()
    return words


class ExtentJournal:
    """Append-only log of extent records with last-writer-wins resolution."""

    __slots__ = ("_buf", "_size", "_flat")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._size = 0
        self._flat: Optional[FlatMap] = None

    def __len__(self) -> int:
        return len(self._buf) // RECORD_BYTES

    @property
    def size(self) -> int:
        """Logical EOF: one past the highest byte any record touches."""
        return self._size

    def append(self, start: int, length: int, src: int, src_off: int,
               stamp: float = 0.0) -> None:
        """Record that [start, start+length) now maps to (src, src_off).

        *stamp* orders conflicting records (larger wins); equal stamps
        resolve to the larger *src*.
        """
        if start < 0 or length < 0 or src_off < 0:
            raise InvalidArgument(message=f"bad extent record ({start}, {length}, {src}, {src_off})")
        if length == 0:
            return
        self._buf += RECORD.pack(start, length, src_off, stamp, src, 0)
        end = start + length
        if end > self._size:
            self._size = end
        self._flat = None

    def extend_records(self, raw, src: Optional[int] = None) -> None:
        """Bulk-append records packed as :data:`RECORD` (any bytes-like).

        Negative starts, lengths or source offsets are rejected and
        zero-length records are dropped (as in :meth:`append`).  Given
        *src*, every appended record is attributed to that source.
        """
        raw = bytes(raw)
        if len(raw) % RECORD_BYTES:
            raise InvalidArgument(
                message=f"{len(raw)} bytes is not a whole number of extent records")
        # A little-endian int64 is negative when its last byte is not ASCII.
        if not (raw[7::RECORD_BYTES].isascii() and raw[15::RECORD_BYTES].isascii()
                and raw[23::RECORD_BYTES].isascii()):
            raise InvalidArgument(message="negative field in extent records")
        words = _column_words(raw)
        starts, lengths = words[0::_WORDS], words[1::_WORDS]
        if 0 in lengths:
            words = array("q", [v for i, v in enumerate(words) if lengths[i // _WORDS]])
            starts, lengths = words[0::_WORDS], words[1::_WORDS]
        if not lengths:
            return
        if src is not None:
            words[4::_WORDS] = array("q", [src]) * len(lengths)
        if _SWAP:
            words.byteswap()
        self._buf += words
        end = max(map(add, starts, lengths))
        if end > self._size:
            self._size = end
        self._flat = None

    def grow_last(self, extra: int) -> None:
        """Extend the most recent record by *extra* bytes.

        Used for contiguous-record merging (PLFS coalesces an index entry
        whose logical and physical ranges both extend the previous one).
        The caller asserts contiguity; this just maintains invariants.
        """
        if not self._buf:
            raise InvalidArgument(message="grow_last on empty journal")
        if extra <= 0:
            raise InvalidArgument(message=f"grow_last needs extra > 0, got {extra}")
        at = len(self._buf) - RECORD_BYTES
        start, length = _HEAD.unpack_from(self._buf, at)
        length += extra
        _HEAD.pack_into(self._buf, at, start, length)
        if start + length > self._size:
            self._size = start + length
        self._flat = None

    def extend(self, other: "ExtentJournal") -> None:
        """Append every record of *other* (index aggregation uses this)."""
        self._buf += other._buf
        self._size = max(self._size, other._size)
        self._flat = None

    def records(self) -> Iterator[Tuple[int, int, int, float, int, int]]:
        """The records as ``(start, length, src_off, stamp, src, pad)`` tuples.

        The journal cannot grow while the iterator is alive, so drop it
        before the next append.
        """
        return RECORD.iter_unpack(self._buf)

    def tobytes(self, lo: int = 0, hi: Optional[int] = None) -> bytes:
        """On-media bytes of records [lo, hi) (all records by default)."""
        stop = len(self._buf) if hi is None else hi * RECORD_BYTES
        return bytes(self._buf[lo * RECORD_BYTES:stop])

    @property
    def nbytes(self) -> int:
        """Serialized footprint of the journal (what index files weigh)."""
        return len(self._buf)

    def flatten(self) -> "FlatMap":
        """Resolve to a non-overlapping map; cached until the next append."""
        if self._flat is None:
            self._flat = _flatten(self._buf, self._size)
        return self._flat


class FlatMap:
    """A resolved, sorted, non-overlapping extent map supporting range queries.

    The four columns (start, length, src, src_off) are stored once, as
    ``array('q')``; a map of disjoint records takes them as strided slices
    of its journal's packed records, sorted by start.  :meth:`query` is
    the per-read hot path: a read of a small transfer touches one or two
    rows, so it bisects the start column and walks those rows as Python
    ints.  :meth:`segments` yields every row.
    """

    __slots__ = ("_starts", "_lengths", "_srcs", "_src_offs", "size")

    def __init__(self, starts: array, lengths: array, srcs: array, src_offs: array,
                 size: int):
        self._starts = starts
        self._lengths = lengths
        self._srcs = srcs
        self._src_offs = src_offs
        self.size = size

    def __len__(self) -> int:
        return len(self._starts)

    def segments(self) -> Iterator[Segment]:
        """All written segments, in offset order."""
        return zip(self._starts, map(add, self._starts, self._lengths),
                   self._srcs, self._src_offs)

    def query(self, offset: int, length: int) -> List[Segment]:
        """Segments covering [offset, offset+length), holes included as src=HOLE.

        The result tiles the query range exactly, in order.
        """
        if offset < 0 or length < 0:
            raise InvalidArgument(message=f"bad query ({offset}, {length})")
        out: List[Segment] = []
        if length == 0:
            return out
        lo, hi = offset, offset + length
        # The rows that can overlap are those starting before hi, from the
        # last one starting at or before lo (which may end before lo and
        # then adds nothing).
        starts, lengths = self._starts, self._lengths
        i = bisect_right(starts, lo) - 1
        if i < 0:
            i = 0
        pos = lo
        for k in range(i, bisect_left(starts, hi, i)):
            s = starts[k]
            if pos < s:
                out.append((pos, s, HOLE, 0))
                pos = s
            e = s + lengths[k]
            seg_end = e if e < hi else hi
            if seg_end > pos:
                out.append((pos, seg_end, self._srcs[k], self._src_offs[k] + (pos - s)))
                pos = seg_end
        if pos < hi:
            out.append((pos, hi, HOLE, 0))
        return out


def _empty(size: int) -> FlatMap:
    return FlatMap(array("q"), array("q"), array("q"), array("q"), size)


def _resolve(words: array, size: int) -> Optional[FlatMap]:
    """The map of records in start order, if each ends before the next starts."""
    start, length = words[0::_WORDS], words[1::_WORDS]
    if not all(map(le, map(add, start, length), islice(start, 1, None))):
        return None
    return FlatMap(start, length, words[4::_WORDS], words[2::_WORDS], size)


def _swap_start_bytes(recs: bytearray) -> None:
    """Reverse the bytes of every record's start field, in place.

    Little-endian starts become big-endian (and back), so, starts being
    never negative, the byte order of two swapped records is the order
    of their starts.
    """
    for k in range(4):
        recs[k::RECORD_BYTES], recs[7 - k::RECORD_BYTES] = \
            recs[7 - k::RECORD_BYTES], recs[k::RECORD_BYTES]


def _flatten(buf: bytearray, size: int) -> FlatMap:
    if not buf:
        return _empty(0)
    flat = _resolve(_column_words(buf), size)  # fast path: rows in start order
    if flat is not None:
        return flat
    # Sort the packed records themselves, as bytes keyed by start.
    # Sorting by start alone matches a sort by (start, stamp, src): rows
    # with equal starts overlap (every length is positive), so a tie
    # always ends on the slow path, which takes the journal order.
    # Host memory: the sorted rows go back into the one copy, a few at a
    # time, as a join holds a buffer descriptor (80 B) per row it joins.
    keyed = bytearray(buf)
    _swap_start_bytes(keyed)
    rows = list(map(itemgetter(0), _ROW.iter_unpack(keyed)))
    rows.sort()
    for i in range(0, len(rows), _JOIN_ROWS):
        keyed[i * RECORD_BYTES:(i + _JOIN_ROWS) * RECORD_BYTES] = \
            b"".join(rows[i:i + _JOIN_ROWS])
    del rows
    _swap_start_bytes(keyed)
    words = _column_words(keyed)
    del keyed
    flat = _resolve(words, size)
    if flat is not None:
        return flat
    return _paint(_column_words(buf), _column_words(buf, "d")[3::_WORDS], size)


def _paint(words: array, stamp: array, size: int) -> FlatMap:
    """Last-writer-wins resolution of overlapping records.

    Elementary-interval painting: split the axis at every record boundary,
    then paint records from newest to oldest, each claiming only the
    not-yet-painted elementary slots it spans.  A union-find next-pointer
    array makes each slot cost amortized ~O(α).
    """
    start, src, src_off = words[0::_WORDS], words[4::_WORDS], words[2::_WORDS]
    end = list(map(add, start, words[1::_WORDS]))
    bounds = sorted(set(start).union(end))
    slot_of = {b: i for i, b in enumerate(bounds)}
    m = len(bounds) - 1  # number of elementary slots
    winner = [-1] * m
    nxt = list(range(m + 1))  # next unpainted slot at or after i

    def find(i: int) -> int:
        root = i
        while nxt[root] != root:
            root = nxt[root]
        while nxt[i] != root:  # path compression
            nxt[i], i = root, nxt[i]
        return root

    # Newest first: descending (stamp, src), and of records equal in both
    # the later one first (the reverse of a stable ascending sort).
    keys = list(zip(stamp, src))
    for rec in sorted(range(len(keys)), key=keys.__getitem__)[::-1]:
        j = find(slot_of[start[rec]])
        stop = slot_of[end[rec]]
        while j < stop:
            winner[j] = rec
            nxt[j] = j + 1
            j = find(j + 1)

    # One row per run of adjacent slots that continue the same record.
    starts, lengths, srcs, src_offs = array("q"), array("q"), array("q"), array("q")
    last_slot = last_rec = -2
    for j, rec in enumerate(winner):
        if rec < 0:
            continue
        if j == last_slot + 1 and rec == last_rec:
            lengths[-1] += bounds[j + 1] - bounds[j]
        else:
            lo = bounds[j]
            starts.append(lo)
            lengths.append(bounds[j + 1] - lo)
            srcs.append(src[rec])
            src_offs.append(src_off[rec] + (lo - start[rec]))
        last_slot, last_rec = j, rec
    return FlatMap(starts, lengths, srcs, src_offs, size)
