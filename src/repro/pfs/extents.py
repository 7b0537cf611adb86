"""Extent journals and flattened extent maps.

Both the simulated file system's file contents and PLFS's index share one
problem: a sequence of ``(logical_offset, length, source, source_offset,
timestamp)`` records, where later records overwrite earlier ones, must be
resolved into a flat, non-overlapping extent map for reads.  The paper's
PLFS defers exactly this work from write time to read time (§II), so the
resolution code is a first-class, shared component.

:class:`ExtentJournal` is the append-only record log.  It keeps its records
in one ``bytearray``, packed in the on-media index-record layout
(:data:`RECORD_DTYPE`), so a PLFS index log serializes and parses by
slicing, and a one-record journal costs about 200 bytes of host memory
(a 65,536-rank job holds a quarter of a million journals).
:meth:`ExtentJournal.flatten` resolves it:

* fast path — when records don't overlap (the overwhelmingly common
  checkpoint case, which the paper's footnote 1 also leans on), flattening
  is a single numpy sort;
* slow path — genuine overlaps resolve *last-writer-wins by timestamp*
  (ties broken by the larger source, e.g. writer id) using
  elementary-interval painting with a union-find "next unpainted slot"
  walk, O(n α n) after the sort.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import InvalidArgument

__all__ = ["ExtentJournal", "FlatMap", "Segment", "HOLE", "RECORD_DTYPE",
           "RECORD_BYTES"]

HOLE = -1  # src value marking an unwritten gap in query results

# A resolved segment: [start, end) maps to source `src` at `src_off`.
Segment = Tuple[int, int, int, int]

# One record, in memory and on media: PLFS's C index entry (logical offset,
# length, physical offset, timestamp, writer id) padded to the weight of
# the real struct.  In a PLFS index, src is the writer and src_off the
# offset in its data log.
RECORD_DTYPE = np.dtype([
    ("start", "<i8"),
    ("length", "<i8"),
    ("src_off", "<i8"),
    ("stamp", "<f8"),
    ("src", "<i8"),
    ("pad", "<i8"),
])
RECORD_BYTES = RECORD_DTYPE.itemsize
# The same layout for one record at a time (``append`` is per write).
_RECORD = struct.Struct("<qqqdqq")
_HEAD = struct.Struct("<qq")  # a record's (start, length)


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
        self._buf += _RECORD.pack(start, length, src_off, stamp, src, 0)
        end = start + length
        if end > self._size:
            self._size = end
        self._flat = None

    def extend_records(self, recs: np.ndarray, src: Optional[int] = None) -> None:
        """Bulk-append records given as a :data:`RECORD_DTYPE` array.

        Negative starts, lengths or source offsets are rejected and
        zero-length records are dropped (as in :meth:`append`).  Given
        *src*, every appended record is attributed to that source.
        """
        if (recs["start"] < 0).any() or (recs["length"] < 0).any() \
                or (recs["src_off"] < 0).any():
            raise InvalidArgument(message="negative field in extent records")
        recs = recs[recs["length"] > 0]
        if not len(recs):
            return
        at = len(self._buf)
        self._buf.extend(recs.view(np.uint8))
        if src is not None:
            np.frombuffer(self._buf, dtype=RECORD_DTYPE, offset=at)["src"] = src
        self._size = max(self._size, int((recs["start"] + recs["length"]).max()))
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

    def records(self) -> np.ndarray:
        """Zero-copy :data:`RECORD_DTYPE` view of the records.

        The journal cannot grow while the view is alive, so drop it before
        the next append.
        """
        return np.frombuffer(self._buf, dtype=RECORD_DTYPE)

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
            recs = self.records()
            self._flat = _flatten(recs["start"], recs["length"], recs["src"],
                                  recs["src_off"], recs["stamp"], self._size)
        return self._flat


class FlatMap:
    """A resolved, sorted, non-overlapping extent map supporting range queries.

    The four columns (start, end, src, src_off) are stored once, as
    ``array('q')``.  :meth:`query` is the per-read hot path: a read of a
    small transfer touches one or two rows, so it bisects the start column
    and walks those rows as Python ints, with no numpy call per query.
    :meth:`segments` yields every row.
    """

    __slots__ = ("_starts", "_ends", "_srcs", "_src_offs", "size")

    def __init__(self, starts: array, ends: array, srcs: array, src_offs: array,
                 size: int):
        self._starts = starts
        self._ends = ends
        self._srcs = srcs
        self._src_offs = src_offs
        self.size = size

    def __len__(self) -> int:
        return len(self._starts)

    def segments(self) -> Iterator[Segment]:
        """All written segments, in offset order."""
        return zip(self._starts, self._ends, self._srcs, self._src_offs)

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
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, lo) - 1
        if i < 0:
            i = 0
        pos = lo
        for k in range(i, bisect_left(starts, hi, i)):
            s = starts[k]
            if pos < s:
                out.append((pos, s, HOLE, 0))
                pos = s
            e = ends[k]
            seg_end = e if e < hi else hi
            if seg_end > pos:
                out.append((pos, seg_end, self._srcs[k], self._src_offs[k] + (pos - s)))
                pos = seg_end
        if pos < hi:
            out.append((pos, hi, HOLE, 0))
        return out


def _gather(values: np.ndarray, rows: np.ndarray) -> array:
    """``values[rows]`` as a new ``array('q')`` column.

    numpy writes the rows straight into the column's buffer, so no numpy
    copy of the column ever exists next to it (``mode="clip"`` keeps
    ``take`` from buffering; every row is in range).
    """
    col = array("q", [0]) * len(rows)
    np.take(values, rows, out=np.frombuffer(col, dtype=np.int64), mode="clip")
    return col


def _empty(size: int) -> FlatMap:
    return FlatMap(array("q"), array("q"), array("q"), array("q"), size)


def _flatten(start: np.ndarray, length: np.ndarray, src: np.ndarray,
             src_off: np.ndarray, stamp: np.ndarray, size: int) -> FlatMap:
    n = len(start)
    if n == 0:
        return _empty(0)
    end = start + length
    order = np.lexsort((src, stamp, start))
    s, e = _gather(start, order), _gather(end, order)
    sv, ev = np.frombuffer(s, dtype=np.int64), np.frombuffer(e, dtype=np.int64)
    if np.all(ev[:-1] <= sv[1:]):
        # Fast path: already disjoint once sorted by start.
        return FlatMap(s, e, _gather(src, order), _gather(src_off, order), size)
    return _paint(start, end, src, src_off, stamp, size)


def _paint(start, end, src, src_off, stamp, size) -> FlatMap:
    """Last-writer-wins resolution of overlapping records.

    Elementary-interval painting: split the axis at every record boundary,
    then paint records from newest to oldest, each claiming only the
    not-yet-painted elementary slots it spans.  A union-find next-pointer
    array makes each slot cost amortized ~O(α).
    """
    bounds = np.unique(np.concatenate([start, end]))
    slot_of = {int(b): i for i, b in enumerate(bounds)}
    m = len(bounds) - 1  # number of elementary slots
    winner = np.full(m, -1, dtype=np.int64)
    nxt = list(range(m + 1))  # next unpainted slot at or after i

    def find(i: int) -> int:
        root = i
        while nxt[root] != root:
            root = nxt[root]
        while nxt[i] != root:  # path compression
            nxt[i], i = root, nxt[i]
        return root

    # Newest first: descending (stamp, src), ties broken arbitrarily after.
    order = np.lexsort((src, stamp))[::-1]
    for rec in order:
        rec = int(rec)
        j = find(slot_of[int(start[rec])])
        stop = slot_of[int(end[rec])]
        while j < stop:
            winner[j] = rec
            nxt[j] = j + 1
            j = find(j + 1)

    painted = np.nonzero(winner >= 0)[0]
    if len(painted) == 0:
        return _empty(size)
    w = winner[painted]
    seg_start = bounds[painted]
    seg_end = bounds[painted + 1]
    seg_src = src[w]
    seg_off = src_off[w] + (seg_start - start[w])
    # Merge adjacent slots that continue the same record's mapping.
    keep = np.ones(len(painted), dtype=bool)
    if len(painted) > 1:
        contiguous = (
            (seg_start[1:] == seg_end[:-1])
            & (w[1:] == w[:-1])
        )
        keep[1:] = ~contiguous
    idx = np.nonzero(keep)[0]
    # End of each merged run = end of the slot just before the next kept one.
    run_last = np.append(idx[1:] - 1, len(painted) - 1)
    return FlatMap(_gather(seg_start, idx), _gather(seg_end, run_last),
                   _gather(seg_src, idx), _gather(seg_off, idx), size)
