"""PLFS read path: resolve logical ranges through the global index.

A read handle owns a :class:`~repro.plfs.index.GlobalIndex` (built by one
of the §IV aggregation strategies) and opens writers' data logs lazily —
one backing-store open per distinct log a reader actually touches.  When
the read pattern matches the write pattern (the common restart case) each
rank streams exactly one log head-to-tail, which the OSD model rewards
with seek-free, prefetch-friendly access (§IV-D's explanation of why PLFS
reads can *beat* direct access).
"""

from __future__ import annotations

from typing import Dict, Generator

from ..errors import BadFileHandle, InvalidArgument, PLFSError
from ..faults.policies import RetryPolicy, retrying
from ..pfs.data import DataView, ZeroData
from ..pfs.extents import HOLE
from ..pfs.volume import Client, FileHandle
from .container import ContainerLayout
from .index import GlobalIndex

__all__ = ["PlfsReadHandle"]


class PlfsReadHandle:
    """One reader's open-for-read state on a PLFS logical file."""

    def __init__(self, layout: ContainerLayout, client: Client,
                 global_index: GlobalIndex, retry: RetryPolicy = None):
        self.layout = layout
        self.client = client
        self.global_index = global_index
        self.retry = retry
        self._logs: Dict[int, FileHandle] = {}
        self.closed = False
        self.bytes_read = 0

    @property
    def size(self) -> int:
        return self.global_index.logical_size

    def _open_log(self, writer_id: int) -> Generator:
        node_id = self.global_index.writers.get(writer_id)
        if node_id is None:
            raise PLFSError(f"index references unknown writer {writer_id}")
        s = self.layout.subdir_for_writer(node_id)
        vol = self.layout.subdir_volume(s)
        path = self.layout.data_log_path(node_id, writer_id)
        fh = yield from retrying(vol.env, self.retry,
                                 lambda: vol.open(self.client, path, "r"))
        self._logs[writer_id] = fh
        return fh

    def read(self, offset: int, length: int) -> Generator:
        """Read [offset, offset+length); returns a DataView (short at EOF)."""
        if self.closed:
            raise BadFileHandle(self.layout.path)
        if offset < 0 or length < 0:
            raise InvalidArgument(self.layout.path, f"bad read ({offset}, {length})")
        length = max(0, min(length, self.size - offset))
        if length == 0:
            return DataView([])
        pieces = []
        retry = self.retry
        for seg_start, seg_end, writer, phys in self.global_index.flatten().query(offset, length):
            n = seg_end - seg_start
            if writer == HOLE:
                pieces.append(ZeroData(n))
                continue
            fh = self._logs.get(writer)
            if fh is None:
                fh = yield from self._open_log(writer)
            if retry is None:
                view = yield from fh.read(phys, n)
            else:
                view = yield from retrying(fh.volume.env, retry,
                                           lambda: fh.read(phys, n))
            if view.length != n:
                raise PLFSError(
                    f"data log for writer {writer} shorter than its index "
                    f"(wanted {n} at {phys}, got {view.length})")
            pieces.extend(view.pieces)
        self.bytes_read += length
        return DataView(pieces)

    def close(self) -> Generator:
        if self.closed:
            raise BadFileHandle(self.layout.path)
        # Sorted by writer id: each close charges metadata ops, so the
        # close order is part of the event schedule and must not depend on
        # which logs this reader happened to touch first.
        for _writer_id, fh in sorted(self._logs.items()):
            yield from retrying(fh.volume.env, self.retry, lambda: fh.close())
        self._logs.clear()
        self.closed = True
