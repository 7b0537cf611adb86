"""The parallel-file-system volume facade: POSIX-ish API with charged time.

A :class:`Volume` is one mountable namespace served by one metadata server.
Federated metadata (§V of the paper) glues several volumes together — they
share the physical :class:`~repro.pfs.osd.OsdPool` and storage network (the
realms of one storage system) but each has its own MDS, mirroring PanFS's
rigid realm-per-mount division that the paper works around.

Every operation is a generator to ``yield from`` inside a simulated
process; state changes (namespace, file content) are applied *after* the
modeled time has been charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from ..cluster import Cluster, Node
from ..errors import (BadFileHandle, FileNotFound, InvalidArgument,
                      PermissionDenied, StorageUnavailable)
from ..sim import Engine, Join
from .config import MD_CACHE_HIT_FACTOR, RMW_FACTOR, PfsConfig
from .data import DataSpec, DataView
from .locks import RangeLockManager
from .mds import MetadataServer
from .namespace import Inode, Namespace, split_path
from .osd import OsdPool

__all__ = ["Client", "Stat", "FileHandle", "Volume"]


@dataclass(frozen=True)
class Client:
    """An I/O client: the node it runs on plus a stable identity for locks."""

    node: Node
    client_id: int


@dataclass(frozen=True)
class Stat:
    """File attributes as a stat() call returns them."""

    path: str
    uid: int
    is_dir: bool
    size: int


class FileHandle:
    """An open file; offsets are explicit (pread/pwrite style)."""

    def __init__(self, volume: "Volume", inode: Inode, client: Client,
                 mode: str, path: str):
        self.volume = volume
        self.inode = inode
        self.client = client
        self.mode = mode
        self.path = path
        self.closed = False
        self.bytes_written = 0
        self.bytes_read = 0
        # Write-back state: a pending contiguous dirty range (sole writers).
        self._wb_start = 0
        self._wb_len = 0
        if "w" in mode or mode == "rw":
            inode.writers += 1

    def _check(self, want: str) -> None:
        if self.closed:
            raise BadFileHandle(self.path)
        if want not in self.mode and self.mode != "rw":
            raise PermissionDenied(self.path, f"handle is {self.mode!r}, need {want!r}")

    def write(self, offset: int, spec: DataSpec) -> Generator:
        """Write *spec*'s content at *offset*.

        Sole-writer append streams take the write-back path: the bytes land
        in the client cache at memory speed and flush to storage in
        ``writeback_bytes`` chunks (how a real client absorbs a PLFS data
        log or an N-N file).  Everything else — in particular strided
        writes into a multi-writer shared file — is written through,
        paying locks, possible read-modify-write, network, and devices.
        """
        self._check("w")
        if offset < 0:
            raise InvalidArgument(self.path, f"negative offset {offset}")
        vol, cfg = self.volume, self.volume.cfg
        length = spec.length
        if length == 0:
            return
        uid = self.inode.uid
        if cfg.writeback_bytes > 0 and self.inode.writers == 1:
            contiguous = self._wb_len > 0 and offset == self._wb_start + self._wb_len
            fresh = self._wb_len == 0 and offset == self.inode.data.size
            if contiguous or fresh:
                yield vol.env.timeout(length / self.client.node.spec.mem_bw)
                if fresh:
                    self._wb_start = offset
                self._wb_len += length
                self._apply(offset, spec)
                if self._wb_len >= cfg.writeback_bytes:
                    yield from self._flush_writeback()
                return
        yield from self._flush_writeback()
        yield from self._charge_write_through(offset, length)
        self._apply(offset, spec)

    def _apply(self, offset: int, spec: DataSpec) -> None:
        self.inode.data.write(offset, spec)
        self.bytes_written += spec.length
        self.client.node.page_cache.insert(self.inode.uid, offset, spec.length)

    def _charge_write_through(self, offset: int, length: int) -> Generator:
        """Charge the full storage path for one write-through request."""
        vol, cfg = self.volume, self.volume.cfg
        uid = self.inode.uid
        held = yield from vol.locks.acquire(self.client.client_id, uid, offset, length)
        try:
            inflate = seek_mult = 1.0
            if cfg.full_stripe > 0:
                if offset % cfg.full_stripe or length % cfg.full_stripe:
                    inflate = RMW_FACTOR
                    seek_mult = 2.0  # the RMW's reads and writes each position
            yield vol.env.timeout(vol.storage_latency)
            join = Join(vol.env)
            vol.pool.io_events(uid, offset, length, join, inflate=inflate,
                               seek_mult=seek_mult)
            vol.storage_net.path_events(self.client.node, length, join)
            if join.pending:
                yield join
        finally:
            vol.locks.release(held)

    def _flush_writeback(self) -> Generator:
        """Push any pending dirty range to storage as one large request."""
        if self._wb_len == 0:
            return
        start, n = self._wb_start, self._wb_len
        self._wb_len = 0
        yield from self._charge_write_through(start, n)

    def append(self, spec: DataSpec) -> Generator:
        """Write at current EOF; returns the landing offset."""
        offset = self.inode.data.size
        yield from self.write(offset, spec)
        return offset

    def read(self, offset: int, length: int) -> Generator:
        """Read [offset, offset+length); returns a DataView (short at EOF)."""
        self._check("r")
        if offset < 0 or length < 0:
            raise InvalidArgument(self.path, f"bad read ({offset}, {length})")
        vol = self.volume
        uid = self.inode.uid
        length = max(0, min(length, self.inode.data.size - offset))
        if length == 0:
            return DataView([])
        cache = self.client.node.page_cache
        missed: List[Tuple[int, int]] = []
        hit = cache.hit_bytes(uid, offset, length, missed)
        miss = length - hit
        if hit:
            yield vol.env.timeout(hit / self.client.node.spec.mem_bw)
        if miss > 0:
            yield vol.env.timeout(vol.storage_latency)
            join = Join(vol.env)
            for run_off, run_len in missed:
                vol.pool.io_events(uid, run_off, run_len, join,
                                   client_id=self.client.client_id, is_read=True)
            vol.storage_net.path_events(self.client.node, miss, join)
            if join.pending:
                yield join
            cache.insert(uid, offset, length, full_blocks_only=True)
        self.bytes_read += length
        return self.inode.data.read(offset, length)

    def size(self) -> int:
        """Current file size in bytes."""
        return self.inode.data.size

    def close(self) -> Generator:
        """Flush pending write-back data and release the handle."""
        if self.closed:
            raise BadFileHandle(self.path)
        yield from self._flush_writeback()
        yield from self.volume.mds.op("close")
        if "w" in self.mode or self.mode == "rw":
            self.inode.writers -= 1
        self.closed = True


class Volume:
    """One parallel-file-system volume (namespace + MDS + shared storage)."""

    def __init__(self, env: Engine, cluster: Cluster, cfg: PfsConfig,
                 name: str = "vol0", pool: Optional[OsdPool] = None,
                 locks: Optional[RangeLockManager] = None):
        self.env = env
        self.cluster = cluster
        self.cfg = cfg
        self.name = name
        self.ns = Namespace(cluster.uids)
        self.mds = MetadataServer(env, cfg, name=f"{name}.mds")
        self.pool = pool if pool is not None else OsdPool(env, cfg, name=f"{name}.pool")
        self.locks = locks if locks is not None else RangeLockManager(env, cfg)
        self.storage_net = cluster.storage_net
        self.storage_latency = cluster.spec.storage_latency
        # Client metadata cache: (node_id, inode_uid) pairs whose attributes
        # some rank on that node already fetched (see PfsConfig docs).
        self._md_cache: set = set()
        # Read coalescing: (node_id, inode_uid) -> completion event for a
        # whole-file fetch some co-located rank already has in flight.
        self._inflight: dict = {}

    def _open_cost(self, node_id: int, uid: int) -> float:
        """Fractional op cost of an open, honouring the client md cache."""
        if not self.cfg.md_client_cache:
            return 1.0
        key = (node_id, uid)
        if key in self._md_cache:
            return MD_CACHE_HIT_FACTOR
        self._md_cache.add(key)
        return 1.0

    # -- directory & namespace ops -----------------------------------------
    def _parent(self, path: str):
        """(uid, entry count) of a path's parent directory (for MDS charging)."""
        parent_path, _ = split_path(path)
        parent = self.ns.try_resolve(parent_path)
        if parent is None:
            raise FileNotFound(parent_path)
        return {"dir_uid": parent.uid, "dir_entries": len(parent.children or ())}

    def mkdir(self, client: Client, path: str) -> Generator:
        """Create one directory (charges the parent-directory mutation)."""
        yield from self.mds.op("mkdir", **self._parent(path))
        self.ns.mkdir(path)

    def makedirs(self, client: Client, path: str) -> Generator:
        """mkdir -p, charging one op per missing component."""
        parts = [p for p in path.split("/") if p]
        cur = ""
        for p in parts:
            cur += "/" + p
            if not self.ns.exists(cur):
                yield from self.mkdir(client, cur)

    def open(self, client: Client, path: str, mode: str, *,
             create: bool = False, exclusive: bool = False,
             truncate: bool = False) -> Generator:
        """Open a file; returns a :class:`FileHandle`.

        *mode* is ``"r"``, ``"w"``, or ``"rw"``.  ``create`` makes the file
        if missing (charging the heavier create op against the parent
        directory); ``truncate`` empties an existing file.
        """
        if mode not in ("r", "w", "rw"):
            raise InvalidArgument(path, f"bad open mode {mode!r}")
        inode = self.ns.try_resolve(path)
        if inode is None and not create:
            raise FileNotFound(path)
        if inode is not None and not (create and exclusive):
            yield from self.mds.op("open",
                                   count=self._open_cost(client.node.id, inode.uid))
            if truncate:
                inode.data.truncate()
        else:
            yield from self.mds.op("create", **self._parent(path))
            inode = self.ns.create(path, exclusive=exclusive, truncate=truncate)
        return FileHandle(self, inode, client, mode, path)

    def stat(self, client: Client, path: str) -> Generator:
        """Attributes of *path*; returns a :class:`Stat`."""
        yield from self.mds.op("stat")
        node = self.ns.resolve(path)
        return Stat(path=path, uid=node.uid, is_dir=node.is_dir,
                    size=0 if node.is_dir else node.data.size)

    def readdir(self, client: Client, path: str) -> Generator:
        """List a directory; returns sorted names."""
        yield from self.mds.op("readdir")
        return self.ns.readdir(path)

    def unlink(self, client: Client, path: str) -> Generator:
        """Remove a file and drop its lock/cache state."""
        yield from self.mds.op("unlink", **self._parent(path))
        node = self.ns.resolve(path)
        self.ns.unlink(path)
        self.locks.forget_file(node.uid)

    def rmdir(self, client: Client, path: str) -> Generator:
        """Remove an empty directory."""
        yield from self.mds.op("rmdir", **self._parent(path))
        self.ns.rmdir(path)

    def rename(self, client: Client, old: str, new: str) -> Generator:
        """Atomic rename; destination must not exist."""
        yield from self.mds.op("rename", **self._parent(new))
        self.ns.rename(old, new)

    # -- batched paths -------------------------------------------------------
    def bulk_read_files(self, client: Client, paths: Sequence[str],
                        contents: bool = True) -> Generator:
        """Open, fully read, and close many small files as one charged batch.

        This models a client slurping k files (the Original-PLFS index read:
        every rank opens every writer's index log).  Time is charged in
        aggregate — k opens+closes at the MDS, total bytes plus one
        seek-equivalent per file spread over the OSD pool — producing the
        same contention as k individual requests at a tiny fraction of the
        event count.  Returns the file contents in order, or None with
        *contents* false (the same charges, no views built).
        """
        k = len(paths)
        if k == 0:
            return []
        inodes = [self.ns.resolve(p) for p in paths]
        for node in inodes:
            if node.is_dir:
                raise InvalidArgument("bulk_read_files of a directory")
        cfg = self.cfg
        # Degraded-mode gate: the bulk path charges OSD servers directly
        # (bypassing OsdPool.io_events), so check device health here, and do it before
        # the in-flight registration below — raising after registering would
        # leave joiners waiting on an event that never fires.
        for osd in self.pool.osds:
            if osd.down:
                raise StorageUnavailable(
                    f"osd{osd.index}",
                    f"OSD {osd.index} is down (bulk read)")
        # Partition into page-cache hits, fetches already in flight from
        # this node (read coalescing), and genuine misses — registered
        # before any time is charged so concurrent callers see each other.
        cache = client.node.page_cache
        misses = []
        coalesced = []
        hit_bytes = 0
        for n in inodes:
            size = n.data.size
            if size == 0:
                continue
            if cache.hit_bytes(n.uid, 0, size) >= size:
                hit_bytes += size
                continue
            inflight = self._inflight.get((client.node.id, n.uid))
            if inflight is not None:
                coalesced.append(inflight)
            else:
                misses.append(n)
        done = None
        if misses:
            done = self.env.event()
            for n in misses:
                self._inflight[(client.node.id, n.uid)] = done
        # Client metadata cache: co-located ranks re-opening the same files
        # pay the cached fraction.
        open_cost = sum(self._open_cost(client.node.id, n.uid) for n in inodes)
        yield from self.mds.op("open", count=max(open_cost, 1e-6))
        if hit_bytes:
            yield self.env.timeout(hit_bytes / client.node.spec.mem_bw)
        if misses:
            total = sum(n.data.size for n in misses)
            yield self.env.timeout(self.storage_latency)
            n_osds = cfg.n_osds
            overhead = (cfg.osd_seek_time + cfg.osd_op_overhead) * cfg.osd_bw
            join = Join(self.env)
            if len(misses) >= 2 * n_osds:
                # Many files: uniformly placed, charge the pool evenly.  Each
                # file costs one device request per lane it actually spans.
                ops_total = sum(
                    max(1, min(cfg.stripe_width, -(-n.data.size // cfg.stripe_unit)))
                    for n in misses
                )
                per_osd_bytes = total / n_osds
                per_osd_ops = max(1.0, ops_total / n_osds)
                for osd in self.pool.osds:
                    osd.server.serve(per_osd_bytes + per_osd_ops * overhead, join)
            else:
                # Few files: charge exactly the OSDs their lanes live on.
                demand: dict = {}
                for n in misses:
                    size = n.data.size
                    lanes = max(1, min(cfg.stripe_width,
                                       -(-size // cfg.stripe_unit)))
                    for lane in range(lanes):
                        osd = self.pool.lane_osd(n.uid, lane)
                        demand[osd.index] = (demand.get(osd.index, 0.0)
                                             + size / lanes + overhead)
                for i, d in demand.items():  # repro: noqa[REP004] -- keyed by osd index from the deterministic lane walk
                    self.pool.osds[i].server.serve(d, join)
            self.storage_net.path_events(client.node, total, join)
            yield join
            for n in misses:
                # Whole-file slurps really did move every byte, so the
                # trailing partial block is legitimately resident.
                cache.insert(n.uid, 0, n.data.size)
        if done is not None:
            for n in misses:
                self._inflight.pop((client.node.id, n.uid), None)
            done.succeed()
        if coalesced:
            yield self.env.all_of(coalesced)
        yield from self.mds.op("close", count=k)
        if not contents:
            return None
        return [n.data.read(0, n.data.size) for n in inodes]

    # -- helpers ---------------------------------------------------------------
    def write_file(self, client: Client, path: str, spec: DataSpec) -> Generator:
        """Create/truncate *path* and write *spec* at offset 0 (convenience)."""
        fh = yield from self.open(client, path, "w", create=True, truncate=True)
        yield from fh.write(0, spec)
        yield from fh.close()

    def read_file(self, client: Client, path: str) -> Generator:
        """Open, read fully, close; returns a DataView."""
        fh = yield from self.open(client, path, "r")
        view = yield from fh.read(0, fh.size())
        yield from fh.close()
        return view
