"""Extent journals and flattened extent maps.

Both the simulated file system's file contents and PLFS's index share one
problem: a sequence of ``(logical_offset, length, source, source_offset,
timestamp)`` records, where later records overwrite earlier ones, must be
resolved into a flat, non-overlapping extent map for reads.  The paper's
PLFS defers exactly this work from write time to read time (§II), so the
resolution code is a first-class, shared component.

:class:`ExtentJournal` is the append-only record log (compact
``array``-backed columns — a 65,536-rank checkpoint can easily produce
millions of records).  :meth:`ExtentJournal.flatten` resolves it:

* fast path — when records don't overlap (the overwhelmingly common
  checkpoint case, which the paper's footnote 1 also leans on), flattening
  is a single numpy sort;
* slow path — genuine overlaps resolve *last-writer-wins by timestamp*
  (ties broken by a minor stamp, e.g. writer id) using elementary-interval
  painting with a union-find "next unpainted slot" walk, O(n α n) after the
  sort.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import InvalidArgument

__all__ = ["ExtentJournal", "FlatMap", "Segment", "HOLE"]

HOLE = -1  # src value marking an unwritten gap in query results

# A resolved segment: [start, end) maps to source `src` at `src_off`.
Segment = Tuple[int, int, int, int]


class ExtentJournal:
    """Append-only log of extent records with last-writer-wins resolution."""

    __slots__ = ("_start", "_length", "_src", "_src_off", "_stamp", "_minor",
                 "_size", "_flat")

    def __init__(self) -> None:
        self._start = array("q")
        self._length = array("q")
        self._src = array("q")
        self._src_off = array("q")
        self._stamp = array("d")
        self._minor = array("q")
        self._size = 0
        self._flat: Optional[FlatMap] = None

    def __len__(self) -> int:
        return len(self._start)

    @property
    def size(self) -> int:
        """Logical EOF: one past the highest byte any record touches."""
        return self._size

    def append(self, start: int, length: int, src: int, src_off: int,
               stamp: float = 0.0, minor: int = 0) -> None:
        """Record that [start, start+length) now maps to (src, src_off).

        *stamp* orders conflicting records (larger wins); *minor* breaks
        stamp ties deterministically (larger wins), e.g. the writer id.
        """
        if start < 0 or length < 0 or src_off < 0:
            raise InvalidArgument(message=f"bad extent record ({start}, {length}, {src}, {src_off})")
        if length == 0:
            return
        self._start.append(start)
        self._length.append(length)
        self._src.append(src)
        self._src_off.append(src_off)
        self._stamp.append(stamp)
        self._minor.append(minor)
        end = start + length
        if end > self._size:
            self._size = end
        self._flat = None

    def extend_arrays(self, start, length, src, src_off, stamp, minor) -> None:
        """Vectorized bulk append of parallel record arrays.

        Zero-length records are dropped (as in :meth:`append`); negative
        offsets/lengths are rejected.  All arrays must be equal length;
        scalar ``src``/``stamp``/``minor`` broadcast.
        """
        start = np.ascontiguousarray(start, dtype=np.int64)
        length = np.ascontiguousarray(length, dtype=np.int64)
        n = len(start)
        src = np.broadcast_to(np.asarray(src, dtype=np.int64), (n,))
        src_off = np.ascontiguousarray(src_off, dtype=np.int64)
        stamp = np.broadcast_to(np.asarray(stamp, dtype=np.float64), (n,))
        minor = np.broadcast_to(np.asarray(minor, dtype=np.int64), (n,))
        if not (len(length) == len(src_off) == n and len(stamp) == len(minor) == n):
            raise InvalidArgument(message="extend_arrays: column length mismatch")
        if n == 0:
            return
        if (start < 0).any() or (length < 0).any() or (src_off < 0).any():
            raise InvalidArgument(message="extend_arrays: negative field")
        keep = length > 0
        if not keep.all():
            start, length = start[keep], length[keep]
            src, src_off = np.ascontiguousarray(src[keep]), src_off[keep]
            stamp, minor = np.ascontiguousarray(stamp[keep]), np.ascontiguousarray(minor[keep])
            if len(start) == 0:
                return
        self._start.frombytes(start.tobytes())
        self._length.frombytes(length.tobytes())
        self._src.frombytes(np.ascontiguousarray(src).tobytes())
        self._src_off.frombytes(src_off.tobytes())
        self._stamp.frombytes(np.ascontiguousarray(stamp).tobytes())
        self._minor.frombytes(np.ascontiguousarray(minor).tobytes())
        self._size = max(self._size, int((start + length).max()))
        self._flat = None

    def grow_last(self, extra: int) -> None:
        """Extend the most recent record by *extra* bytes.

        Used for contiguous-record merging (PLFS coalesces an index entry
        whose logical and physical ranges both extend the previous one).
        The caller asserts contiguity; this just maintains invariants.
        """
        if not len(self):
            raise InvalidArgument(message="grow_last on empty journal")
        if extra <= 0:
            raise InvalidArgument(message=f"grow_last needs extra > 0, got {extra}")
        self._length[-1] += extra
        end = self._start[-1] + self._length[-1]
        if end > self._size:
            self._size = end
        self._flat = None

    def extend(self, other: "ExtentJournal") -> None:
        """Append every record of *other* (index aggregation uses this)."""
        self._start.extend(other._start)
        self._length.extend(other._length)
        self._src.extend(other._src)
        self._src_off.extend(other._src_off)
        self._stamp.extend(other._stamp)
        self._minor.extend(other._minor)
        self._size = max(self._size, other._size)
        self._flat = None

    def columns(self) -> Tuple[np.ndarray, ...]:
        """Zero-copy numpy views of the record columns (start, length, src, src_off, stamp, minor)."""
        return (
            np.frombuffer(self._start, dtype=np.int64),
            np.frombuffer(self._length, dtype=np.int64),
            np.frombuffer(self._src, dtype=np.int64),
            np.frombuffer(self._src_off, dtype=np.int64),
            np.frombuffer(self._stamp, dtype=np.float64),
            np.frombuffer(self._minor, dtype=np.int64),
        )

    @property
    def nbytes(self) -> int:
        """Serialized footprint of the journal (what index files weigh)."""
        return len(self) * RECORD_BYTES

    def flatten(self) -> "FlatMap":
        """Resolve to a non-overlapping map; cached until the next append."""
        if self._flat is None:
            self._flat = _flatten(*self.columns(), size=self._size)
        return self._flat


# On-media size of one index record; PLFS's C struct (logical offset,
# length, physical offset, timestamps, id) is ~48 bytes and ours matches.
RECORD_BYTES = 48


class FlatMap:
    """A resolved, sorted, non-overlapping extent map supporting range queries.

    The four columns (start, end, src, src_off) are stored once, as
    ``array('q')``.  :meth:`query` is the per-read hot path: a read of a
    small transfer touches one or two rows, so it bisects the start column
    and walks those rows as Python ints, with no numpy call per query.
    ``starts``/``ends``/``srcs``/``src_offs`` are zero-copy numpy views of
    the columns for vector consumers.
    """

    __slots__ = ("_starts", "_ends", "_srcs", "_src_offs", "size")

    def __init__(self, starts: array, ends: array, srcs: array, src_offs: array,
                 size: int):
        self._starts = starts
        self._ends = ends
        self._srcs = srcs
        self._src_offs = src_offs
        self.size = size

    @property
    def starts(self) -> np.ndarray:
        return np.frombuffer(self._starts, dtype=np.int64)

    @property
    def ends(self) -> np.ndarray:
        return np.frombuffer(self._ends, dtype=np.int64)

    @property
    def srcs(self) -> np.ndarray:
        return np.frombuffer(self._srcs, dtype=np.int64)

    @property
    def src_offs(self) -> np.ndarray:
        return np.frombuffer(self._src_offs, dtype=np.int64)

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
             src_off: np.ndarray, stamp: np.ndarray, minor: np.ndarray,
             size: int) -> FlatMap:
    n = len(start)
    if n == 0:
        return _empty(0)
    end = start + length
    order = np.lexsort((minor, stamp, start))
    s, e = _gather(start, order), _gather(end, order)
    sv, ev = np.frombuffer(s, dtype=np.int64), np.frombuffer(e, dtype=np.int64)
    if np.all(ev[:-1] <= sv[1:]):
        # Fast path: already disjoint once sorted by start.
        return FlatMap(s, e, _gather(src, order), _gather(src_off, order), size)
    return _paint(start, end, src, src_off, stamp, minor, size)


def _paint(start, end, src, src_off, stamp, minor, size) -> FlatMap:
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

    # Newest first: descending (stamp, minor), ties broken arbitrarily after.
    order = np.lexsort((minor, stamp))[::-1]
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
