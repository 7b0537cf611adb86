"""PLFS mount: the user-facing middleware API.

A :class:`PlfsMount` glues one or more backing volumes (federated
metadata, §V) behind a logical namespace in which each *file* is secretly
a container.  Two usage styles mirror the paper's interfaces:

* **coordinated** (the MPI-IO / ADIO driver path, §II): collective
  ``open_write`` / ``open_read`` / ``close_write`` taking a communicator,
  which unlocks the Index Flatten and Parallel Index Read optimizations;
* **independent** (the FUSE path): the same calls with ``comm=None`` —
  container creation races first-writer-wins, and reads fall back to the
  Original (read-everything-yourself) aggregation.

PLFS does not support read-write opens of shared files (§IV-D3 — the
paper had to patch IOR/MADbench for this); ``open_write`` with an existing
open reader or ``mode="rw"`` raises :class:`UnsupportedOperation`.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from ..errors import FileExists, FileNotFound, PLFSError, UnsupportedOperation
from ..faults.policies import RetryPolicy, retrying
from ..pfs.volume import Client, Stat, Volume
from ..sim import Engine
from .aggregation import (
    aggregate_original,
    aggregate_parallel,
    flatten_on_close,
    read_flattened_index,
)
from .config import PlfsConfig
from .container import ACCESS_NAME, ContainerLayout, parse_meta_dropping
from .index import GlobalIndex
from .reader import PlfsReadHandle
from .writer import PlfsWriteHandle, open_write_handle

__all__ = ["PlfsMount"]


class PlfsMount:
    """A mounted PLFS file system over one or more backing volumes."""

    def __init__(self, env: Engine, volumes: Sequence[Volume],
                 cfg: Optional[PlfsConfig] = None, name: str = "plfs"):
        if not volumes:
            raise PLFSError("PLFS mount needs at least one backing volume")
        self.env = env
        self.volumes: List[Volume] = list(volumes)
        self.cfg = cfg or PlfsConfig()
        self.name = name
        # Simulator-side memoization of parsed global indexes, one memo per
        # container path (see aggregation module docstring); never affects
        # charged time.
        self._index_cache: Dict[str, dict] = {}

    def layout(self, path: str) -> ContainerLayout:
        return ContainerLayout(path, self.volumes, self.cfg)

    # -- write side ---------------------------------------------------------
    def open_write(self, client: Client, path: str, comm=None, *,
                   mode: str = "w", truncate: bool = False,
                   retry: RetryPolicy = None) -> Generator:
        """Open a logical file for writing; returns a :class:`PlfsWriteHandle`.

        Collective when *comm* is given: rank 0 creates the container and
        the rest wait (one skeleton creation per job, like the ADIO
        driver).  Independent otherwise: first writer wins the create race.
        ``truncate`` gives O_TRUNC semantics: the logical file is emptied
        (all existing droppings removed) before writing begins.  *retry*
        makes the open and every subsequent write on the handle survive
        transient storage faults (see :mod:`repro.faults.policies`).
        """
        if mode != "w":
            raise UnsupportedOperation(
                path, "PLFS does not support read-write opens of shared files")
        layout = self.layout(path)
        collective = comm is not None and comm.size > 1
        if not collective or comm.rank == 0:
            existed = layout.exists()
            yield from retrying(self.env, retry,
                                lambda: layout.ensure_skeleton(client))
            if truncate and existed:
                yield from layout.truncate(client)
        if collective:
            yield from comm.bcast(None, nbytes=8, root=0)
        handle = yield from open_write_handle(layout, client, retry=retry)
        if truncate:
            self._index_cache.pop(layout.path, None)
        return handle

    def close_write(self, handle: PlfsWriteHandle, comm=None) -> Generator:
        """Close a write handle, running Index Flatten when configured.

        Returns True if a flattened global index was produced (§IV-A).
        """
        flattened = False
        if self.cfg.aggregation == "flatten":
            flattened = yield from flatten_on_close(
                handle.layout, handle.client, comm, handle.index, self.cfg)
        yield from handle.close()
        return flattened

    # -- read side -----------------------------------------------------------
    def open_read(self, client: Client, path: str, comm=None, *,
                  retry: RetryPolicy = None) -> Generator:
        """Open for reading: aggregate the global index per the configured
        strategy, then hand back a :class:`PlfsReadHandle`.

        With *retry* set and ``comm=None``, aggregation runs in resilient
        mode: unreachable index logs are skipped and reported as a
        :class:`~repro.errors.PartialViewError` naming the missing writers
        instead of hanging.  Collective opens ignore *retry* during
        aggregation (a per-rank exception would strand the other ranks at
        the next collective) but reads on the returned handle still retry.
        """
        layout = self.layout(path)
        if not layout.exists():
            raise FileNotFound(path)
        strategy = self.cfg.aggregation
        gi: Optional[GlobalIndex] = None
        if retry is not None and comm is None:
            gi = yield from aggregate_original(layout, client, retry=retry)
            return PlfsReadHandle(layout, client, gi, retry=retry)
        if strategy == "flatten":
            gi = yield from read_flattened_index(layout, client, comm)
        if gi is None:
            if strategy == "parallel" or (strategy == "flatten" and comm is not None):
                gi = yield from aggregate_parallel(layout, client, comm, self.cfg)
            else:
                gi = yield from aggregate_original(
                    layout, client, self._index_cache.setdefault(layout.path, {}))
        return PlfsReadHandle(layout, client, gi, retry=retry)

    # -- namespace / metadata --------------------------------------------------
    def create(self, client: Client, path: str, *, exclusive: bool = False) -> Generator:
        """Create an empty logical file (a container skeleton)."""
        layout = self.layout(path)
        if layout.exists():
            if exclusive:
                raise FileExists(path)
            return layout
        yield from layout.create_skeleton(client)
        return layout

    def exists(self, path: str) -> bool:
        return self.layout(path).exists()

    def stat(self, client: Client, path: str) -> Generator:
        """Logical stat: size comes from metadir dropping *names* (Fig. 1)."""
        layout = self.layout(path)
        home = layout.home_volume
        node = home.ns.try_resolve(path)
        if node is None:
            raise FileNotFound(path)
        if node.is_dir and ACCESS_NAME not in (node.children or {}):
            yield from home.stat(client, path)
            return Stat(path=path, uid=node.uid, is_dir=True, size=0)
        names = yield from home.readdir(client, layout.meta_path)
        size = 0
        for name in names:
            eof, _nrec, _node_id, _writer = parse_meta_dropping(name)
            size = max(size, eof)
        return Stat(path=path, uid=node.uid, is_dir=False, size=size)

    def unlink(self, client: Client, path: str) -> Generator:
        layout = self.layout(path)
        yield from layout.destroy(client)
        self._index_cache.pop(layout.path, None)

    def mkdir(self, client: Client, path: str) -> Generator:
        """Logical mkdir: plain directories exist on every volume so that
        containers can hash anywhere under them."""
        for vol in self._distinct_volumes():
            if not vol.ns.exists(path):
                yield from vol.makedirs(client, path)

    def readdir(self, client: Client, path: str) -> Generator:
        """Logical listing: union over volumes, minus container internals."""
        names = set()
        for vol in self._distinct_volumes():
            if vol.ns.exists(path):
                listing = yield from vol.readdir(client, path)
                names.update(listing)
        return sorted(names)

    def _distinct_volumes(self) -> List[Volume]:
        if self.cfg.federation == "none":
            return self.volumes[:1]
        return self.volumes

    def invalidate_index_cache(self) -> None:
        """Drop memoized indexes (tests / repeated experiments)."""
        self._index_cache.clear()
