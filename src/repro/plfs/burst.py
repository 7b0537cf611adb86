"""Burst-buffer mode: node-local staging with asynchronous drain.

The paper's conclusion anticipates middleware like PLFS carrying the
exascale I/O stack; within a few years that meant node-local burst
buffers (cf. SCR in the related work, and PLFS's own later burst-buffer
backend).  This module models that extension:

* checkpoint *writes* land in a node-local device at local bandwidth —
  the application resumes computing after a memory-speed-ish dump;
* each host's data log then *drains* to the parallel file system in the
  background, overlapping the next compute phase;
* index logs and metadata still go straight to the PFS (they are small
  and must survive the node), so a restart after drain completes sees a
  perfectly ordinary PLFS container.

Reads require the container to be fully drained (like real staging
systems); :meth:`PlfsBurstMount.wait_drains` is the barrier.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from ..errors import PLFSError
from ..faults.policies import RetryPolicy
from ..pfs.volume import Client, Volume
from ..sim import Engine, FairShareServer, Process
from ..units import MiB
from .api import PlfsMount
from .config import PlfsConfig
from .writer import PlfsWriteHandle

__all__ = ["PlfsBurstMount", "BurstWriteHandle"]


class PlfsBurstMount(PlfsMount):
    """A PLFS mount whose data logs stage through node-local burst buffers."""

    def __init__(self, env: Engine, volumes: Sequence[Volume],
                 cfg: Optional[PlfsConfig] = None, name: str = "plfs-bb", *,
                 bb_bw_per_node: float = 2.0e9, drain_chunk: int = 8 * MiB):
        super().__init__(env, volumes, cfg, name)
        if bb_bw_per_node <= 0 or drain_chunk <= 0:
            raise PLFSError("burst buffer bandwidth and drain chunk must be positive")
        self.bb_bw_per_node = bb_bw_per_node
        self.drain_chunk = drain_chunk
        self._bb_devices: Dict[int, FairShareServer] = {}
        self._drains: Dict[str, List[Process]] = {}

    def bb_device(self, node_id: int) -> FairShareServer:
        """The node-local staging device (created lazily per node)."""
        dev = self._bb_devices.get(node_id)
        if dev is None:
            dev = self._bb_devices[node_id] = FairShareServer(
                self.env, self.bb_bw_per_node, name=f"bb[{node_id}]")
        return dev

    # -- write side -----------------------------------------------------------
    def open_write(self, client: Client, path: str, comm=None, *,
                   mode: str = "w", truncate: bool = False,
                   retry: RetryPolicy = None) -> Generator:
        """Like PlfsMount.open_write, but returning a staging handle."""
        handle = yield from super().open_write(client, path, comm, mode=mode,
                                               truncate=truncate, retry=retry)
        return BurstWriteHandle.adopt(handle, self)

    # -- drain management -------------------------------------------------------
    def _register_drain(self, path: str, proc: Process) -> None:
        self._drains.setdefault(path, []).append(proc)

    def pending_drains(self, path: Optional[str] = None) -> List[Process]:
        """Unfinished background drains (optionally for one logical path)."""
        if path is not None:
            return [p for p in self._drains.get(path, []) if not p.triggered]
        # Sorted by path: the returned list feeds all_of(), so its order
        # is part of the event wiring.
        return [p for _path, procs in sorted(self._drains.items())
                for p in procs if not p.triggered]

    def wait_drains(self, path: Optional[str] = None) -> Generator:
        """Block until every (or one path's) background drain completes."""
        procs = self.pending_drains(path)
        if procs:
            yield self.env.all_of(procs)

    def open_read(self, client: Client, path: str, comm=None, *,
                  retry: RetryPolicy = None) -> Generator:
        """Open for read; refuses while the container is still draining."""
        if self.pending_drains(self.layout(path).path):
            raise PLFSError(
                f"{path}: container still draining from burst buffers; "
                "yield from mount.wait_drains(path) first")
        handle = yield from super().open_read(client, path, comm, retry=retry)
        return handle


class BurstWriteHandle(PlfsWriteHandle):
    """A write handle whose data appends hit the node-local burst device."""

    @classmethod
    def adopt(cls, handle: PlfsWriteHandle, mount: PlfsBurstMount) -> "BurstWriteHandle":
        """Rebind a freshly opened write handle to the staging write path."""
        handle.__class__ = cls
        handle.mount = mount  # type: ignore[attr-defined]
        return handle  # type: ignore[return-value]

    def write(self, offset: int, spec) -> Generator:
        """Stage the bytes locally; index records point at the final log."""
        if self.closed:
            from ..errors import BadFileHandle

            raise BadFileHandle(self.layout.path)
        if spec.length == 0:
            return
        # Charge the node-local device only (shared by co-located writers).
        dev = self.mount.bb_device(self.client.node.id)
        yield dev.serve(spec.length)
        # Content lands in the (logical) data log now; the PFS time for it
        # is charged by the drain.
        physical = self.data_fh.inode.data.size
        self.data_fh.inode.data.write(physical, spec)
        if self.data_fh.volume.cfg.client_cache:
            self.client.node.page_cache.insert(self.data_fh.inode.uid,
                                               physical, spec.length)
        self.index.record(offset, spec.length, physical, stamp=self.env.now)
        self.bytes_written += spec.length
        spill = self.layout.cfg.index_spill_records
        if spill and len(self.index) - self._spilled_records >= spill:
            yield from self._spill_index()

    def close(self) -> Generator:
        """Index + metadata go to the PFS now; the data log drains behind."""
        if self.closed:
            from ..errors import BadFileHandle

            raise BadFileHandle(self.layout.path)
        yield from self._spill_index()
        yield from self.index_fh.close()
        yield from self._drop_metadata()
        self.closed = True
        proc = self.env.process(self._drain(), name=f"drain:{self.layout.path}")
        self.mount._register_drain(self.layout.path, proc)

    def _drain(self) -> Generator:
        """Background copy of the staged data log onto the PFS."""
        size = self.data_fh.inode.data.size
        chunk = self.mount.drain_chunk
        pos = 0
        while pos < size:
            n = min(chunk, size - pos)
            yield from self.data_fh._charge_write_through(pos, n)
            pos += n
        yield from self.data_fh.close()
