"""Virtual data: byte content carried by description instead of allocation.

Simulating a 65,536-process checkpoint means terabytes of logical bytes; we
cannot (and need not) hold them.  A :class:`DataSpec` describes content
deterministically so that

* writes carry a spec, not a buffer;
* the store records which spec covers which extent;
* reads hand back spec *views* that can be compared for content equality
  without materializing (structurally, when the specs line up), or
  materialized to real ``bytes`` for small correctness tests.

``PatternData(seed, offset, n)`` is the workhorse: position ``offset + i``
holds ``pattern_byte(seed, offset + i)``, a cheap integer hash, so any slice
of a pattern is itself a pattern and equality is O(1) structural.
:class:`LiteralData` holds real ``bytes`` (PLFS index logs are literal), so
joining and comparing literal content needs no array.  Only
:meth:`PatternData.to_bytes` imports numpy, inside :func:`pattern_bytes`,
so a simulated run that never materializes pattern content never loads
numpy.
"""

from __future__ import annotations

from ..errors import InvalidArgument

__all__ = ["DataSpec", "ZeroData", "PatternData", "LiteralData", "CompositeData", "DataView", "pattern_bytes"]

# Materialization ceiling for cross-kind equality checks; above this,
# structurally-different specs are conservatively unequal.
_MATERIALIZE_LIMIT = 4 << 20

_MUL1 = 0x9E3779B97F4A7C15
_MUL2 = 0xC2B2AE3D27D4EB4F


def pattern_bytes(seed: int, offset: int, length: int) -> "numpy.ndarray":
    """The canonical pattern content for positions [offset, offset+length)."""
    import numpy as np

    if length < 0:
        raise InvalidArgument(message=f"negative length {length}")
    idx = np.arange(offset, offset + length, dtype=np.uint64)
    v = (idx + np.uint64(seed & 0xFFFFFFFFFFFFFFFF)) * np.uint64(_MUL1)
    v ^= v >> np.uint64(29)
    v *= np.uint64(_MUL2)
    v ^= v >> np.uint64(32)
    return (v & np.uint64(0xFF)).astype(np.uint8)


class DataSpec:
    """Abstract content descriptor. Immutable; all lengths in bytes."""

    __slots__ = ("length",)

    def __init__(self, length: int):
        if length < 0:
            raise InvalidArgument(message=f"negative DataSpec length {length}")
        self.length = int(length)

    def slice(self, start: int, length: int) -> "DataSpec":
        """The sub-spec covering [start, start+length) of this spec."""
        if start < 0 or length < 0 or start + length > self.length:
            raise InvalidArgument(message=f"slice [{start}, {start}+{length}) out of {self.length}")
        return self._slice(start, length)

    def _slice(self, start: int, length: int) -> "DataSpec":
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        """Content as ``bytes`` (use only when small)."""
        raise NotImplementedError

    def content_equal(self, other: "DataSpec") -> bool:
        """Exact content equality when structurally decidable; falls back to
        materializing when both sides are small, else conservatively False."""
        if self.length != other.length:
            return False
        if self.length == 0:
            return True
        decided = self._structural_eq(other)
        if decided is None:
            decided = other._structural_eq(self)
        if decided is not None:
            return decided
        if self.length <= _MATERIALIZE_LIMIT:
            return self.to_bytes() == other.to_bytes()
        return False

    def _structural_eq(self, other: "DataSpec"):
        """True/False when decidable against *other* without materializing, else None."""
        return None


class ZeroData(DataSpec):
    """A run of zero bytes (file holes read back as zeros)."""

    __slots__ = ()

    def _slice(self, start: int, length: int) -> "ZeroData":
        return ZeroData(length)

    def to_bytes(self) -> bytes:
        """``length`` zero bytes."""
        return bytes(self.length)

    def _structural_eq(self, other: DataSpec):
        if isinstance(other, ZeroData):
            return True
        return None

    def __repr__(self) -> str:
        return f"Zero({self.length})"


class PatternData(DataSpec):
    """Deterministic pseudo-random content anchored at an absolute pattern offset."""

    __slots__ = ("seed", "offset")

    def __init__(self, seed: int, offset: int, length: int):
        super().__init__(length)
        self.seed = int(seed)
        self.offset = int(offset)

    def _slice(self, start: int, length: int) -> "PatternData":
        return PatternData(self.seed, self.offset + start, length)

    def to_bytes(self) -> bytes:
        """The pattern content for this slice."""
        return pattern_bytes(self.seed, self.offset, self.length).tobytes()

    def _structural_eq(self, other: DataSpec):
        if isinstance(other, PatternData):
            if self.seed == other.seed and self.offset == other.offset:
                return True
            # Different (seed, offset): decide by materializing if small.
            return None
        return None

    def __repr__(self) -> str:
        return f"Pattern(seed={self.seed}, off={self.offset}, len={self.length})"


class LiteralData(DataSpec):
    """Real bytes: PLFS index logs, small correctness tests, metadata droppings.

    *data* is any bytes-like object; it is held as ``bytes``.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        data = bytes(data)
        super().__init__(len(data))
        self.data = data

    def _slice(self, start: int, length: int) -> "LiteralData":
        if length == self.length:  # a whole-file read: share, don't copy
            return self
        return LiteralData(self.data[start:start + length])

    def to_bytes(self) -> bytes:
        """The literal bytes."""
        return self.data

    def _structural_eq(self, other: DataSpec):
        if isinstance(other, LiteralData):
            return self.data == other.data
        return None

    def __repr__(self) -> str:
        return f"Literal({self.length})"


class CompositeData(DataSpec):
    """A DataSpec formed by concatenating pieces (a :class:`DataView`).

    Two-phase collective buffering builds these: an aggregator coalesces
    many ranks' small strided records into one large contiguous write
    whose content is the concatenation of the records.
    """

    __slots__ = ("view",)

    def __init__(self, view: "DataView"):
        super().__init__(view.length)
        self.view = view

    def _slice(self, start: int, length: int) -> "DataSpec":
        sub = self.view.slice(start, length)
        if len(sub.pieces) == 1:
            return sub.pieces[0]
        return CompositeData(sub)

    def to_bytes(self) -> bytes:
        """The concatenated content."""
        return self.view.to_bytes()

    def _structural_eq(self, other: DataSpec):
        # Piecewise comparison is always decidable (recursing into pieces).
        return self.view.content_equal(other)

    def __repr__(self) -> str:
        return f"Composite(len={self.length}, pieces={len(self.view.pieces)})"


class DataView:
    """An ordered, gap-free sequence of specs representing one byte range.

    Reads of multi-extent ranges return a view; two views (or a view and a
    single spec) compare content-equal piecewise along their common
    sub-extents.
    """

    __slots__ = ("pieces", "length")

    def __init__(self, pieces):
        self.pieces = []
        self.length = 0
        for spec in pieces:
            if spec.length == 0:
                continue
            self.pieces.append(spec)
            self.length += spec.length

    @classmethod
    def of(cls, spec: DataSpec) -> "DataView":
        """A view of a single spec."""
        return cls([spec])

    def to_bytes(self) -> bytes:
        """Concatenated content as ``bytes``; literal pieces are joined as
        they are, with no array built."""
        return b"".join([p.to_bytes() for p in self.pieces])

    def slice(self, offset: int, length: int) -> "DataView":
        """The sub-view covering [offset, offset+length) of this view."""
        if offset < 0 or length < 0 or offset + length > self.length:
            raise InvalidArgument(message=f"view slice [{offset}, +{length}) out of {self.length}")
        out, pos = [], 0
        for p in self.pieces:
            lo, hi = pos, pos + p.length
            s, e = max(lo, offset), min(hi, offset + length)
            if e > s:
                out.append(p.slice(s - lo, e - s))
            pos = hi
            if pos >= offset + length:
                break
        return DataView(out)

    def _boundaries(self):
        out, pos = [], 0
        for p in self.pieces:
            out.append((pos, p))
            pos += p.length
        return out

    def content_equal(self, other) -> bool:
        """Piecewise content equality against another view or a single spec."""
        if isinstance(other, DataSpec):
            other = DataView.of(other)
        if self.length != other.length:
            return False
        # Walk both piece lists, comparing overlapping sub-slices.
        a = self._boundaries()
        b = other._boundaries()
        ai = bi = 0
        pos = 0
        while pos < self.length:
            a_start, a_spec = a[ai]
            b_start, b_spec = b[bi]
            a_end = a_start + a_spec.length
            b_end = b_start + b_spec.length
            end = min(a_end, b_end)
            if not a_spec.slice(pos - a_start, end - pos).content_equal(
                b_spec.slice(pos - b_start, end - pos)
            ):
                return False
            pos = end
            if pos == a_end:
                ai += 1
            if pos == b_end:
                bi += 1
        return True

    def __repr__(self) -> str:
        return f"DataView(len={self.length}, pieces={len(self.pieces)})"
