"""PLFS index records: per-writer logs and the merged global index.

Every PLFS write appends data to the writer's own data log and a record
``(logical_offset, length, physical_offset, timestamp, writer)`` to its
index log (§II).  Reading requires the *global index*: the union of every
writer's records, resolved last-writer-wins by timestamp (the paper's
footnote 1 — synchronized clocks, and HPC checkpoints rarely overwrite
anyway).  Resolution reuses :class:`repro.pfs.extents.ExtentJournal`, the
same machinery the simulated PFS uses for file contents.

Index logs are real files on the backing store, and their records are the
journal's own packed records (:data:`repro.pfs.extents.RECORD`, the
weight of the C struct), so aggregation strategies move and pay for real
bytes, and a log serializes and parses by slicing.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Tuple

from ..errors import PLFSError
from ..pfs.data import DataView, LiteralData
from ..pfs.extents import RECORD_BYTES, ExtentJournal, FlatMap

__all__ = ["WriterIndex", "GlobalIndex"]

_HEADER = struct.Struct("<qq")  # global.index: (records, writers)
_WRITER_ROW = struct.Struct("<qq")  # its writer table: (writer id, node id)


class WriterIndex:
    """One writer's in-memory index buffer (spilled to its index log).

    With ``merge=True`` (PLFS's behaviour), a record whose logical *and*
    physical ranges both extend the previous record coalesces into it —
    sequential writers keep O(1)-sized indexes, while strided patterns
    (the interesting case) still produce one record per write.
    """

    def __init__(self, writer_id: int, node_id: int, merge: bool = False):
        self.writer_id = writer_id
        self.node_id = node_id
        self.merge = merge
        self.journal = ExtentJournal()
        self._last_ends: Tuple[int, int] = (-1, -1)  # (logical end, physical end)

    def __len__(self) -> int:
        return len(self.journal)

    @property
    def nbytes(self) -> int:
        """On-media size of the buffered records."""
        return self.journal.nbytes

    def record(self, logical: int, length: int, physical: int, stamp: float) -> None:
        """Note that [logical, logical+length) now lives at *physical* in the data log."""
        if self.merge and self._last_ends == (logical, physical) and len(self.journal):
            self.journal.grow_last(length)
        else:
            self.journal.append(logical, length, src=self.writer_id, src_off=physical,
                                stamp=stamp)
        self._last_ends = (logical + length, physical + length)

    def seal(self) -> None:
        """Forbid merging into existing records (call after spilling them —
        a grown record would silently diverge from its on-media copy)."""
        self._last_ends = (-1, -1)

    def serialize(self) -> LiteralData:
        """On-media bytes of this index log."""
        return self.serialize_range(0, len(self.journal))

    def serialize_range(self, lo: int, hi: int) -> LiteralData:
        """On-media bytes of records [lo, hi) — used by periodic spills."""
        return LiteralData(self.journal.tobytes(lo, hi))

    @staticmethod
    def parse(view: DataView, writer_id: int, node_id: int) -> "GlobalIndex":
        """Parse one index log's bytes into a single-writer GlobalIndex.

        Every record is attributed to *writer_id*, the writer the log's
        name gives.
        """
        raw = view.to_bytes()
        if len(raw) % RECORD_BYTES:
            raise PLFSError(f"index log size {len(raw)} not a record multiple")
        gi = GlobalIndex()
        gi.journal.extend_records(raw, src=writer_id)
        gi.writers[writer_id] = node_id
        return gi


class GlobalIndex:
    """The merged index of a container: extent journal + writer table."""

    def __init__(self) -> None:
        self.journal = ExtentJournal()
        self.writers: Dict[int, int] = {}  # writer_id -> node_id (for log paths)

    def __len__(self) -> int:
        return len(self.journal)

    @property
    def nbytes(self) -> int:
        """Wire/media weight: records plus the (small) writer table."""
        return self.journal.nbytes + 16 * len(self.writers)

    @property
    def logical_size(self) -> int:
        """Logical EOF implied by the records."""
        return self.journal.size

    def merge_writer(self, widx: WriterIndex) -> None:
        """Absorb a writer's in-memory index (gather-side aggregation)."""
        self.journal.extend(widx.journal)
        self.writers[widx.writer_id] = widx.node_id

    def merge(self, other: "GlobalIndex") -> None:
        """Absorb another global index's records and writer table."""
        self.journal.extend(other.journal)
        self.writers.update(other.writers)

    @classmethod
    def merged(cls, parts: Iterable["GlobalIndex"]) -> "GlobalIndex":
        """Union of several global indexes."""
        out = cls()
        for p in parts:
            out.merge(p)
        return out

    def flatten(self) -> FlatMap:
        """Resolve to a non-overlapping logical->physical map."""
        return self.journal.flatten()

    # -- media form (the flatten strategy's global.index file) ----------------
    def serialize(self) -> LiteralData:
        """Header (record and writer counts), records, then writer table."""
        wtab = b"".join([_WRITER_ROW.pack(*row) for row in sorted(self.writers.items())])
        return LiteralData(_HEADER.pack(len(self.journal), len(self.writers))
                           + self.journal.tobytes() + wtab)

    @classmethod
    def deserialize(cls, view: DataView) -> "GlobalIndex":
        raw = view.to_bytes()
        if len(raw) < _HEADER.size:
            raise PLFSError("global index blob too short")
        n, w = _HEADER.unpack_from(raw)
        body = _HEADER.size + n * RECORD_BYTES
        need = body + w * _WRITER_ROW.size
        if n < 0 or w < 0 or len(raw) != need:
            raise PLFSError(f"global index blob size {len(raw)} != expected {need}")
        gi = cls()
        gi.journal.extend_records(memoryview(raw)[_HEADER.size:body])
        gi.writers = dict(_WRITER_ROW.iter_unpack(memoryview(raw)[body:]))
        return gi
