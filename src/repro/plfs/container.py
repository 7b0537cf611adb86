"""PLFS container layout on the backing parallel file system(s).

A logical PLFS file is physically a *container*: a directory of the same
name holding an access file, a metadata directory whose dropping *names*
encode logical file size (so stat never reads data), an openhosts
directory marking live writers, and hashed subdirs holding each writer's
append-only data log and index log (paper Fig. 1).

Federated metadata (§V) spreads pieces across several backing volumes:

* ``container`` mode hashes whole containers across volumes — this is the
  fix for application-generated N-N workloads (every file is a container);
* ``subdir`` mode keeps the container skeleton on its home volume but
  places ``subdirs.s`` on volume ``(home + s) % k`` — the fix for the
  physical N-N that PLFS's own N-1 transformation creates.

Placement is *static hashing* (the paper contrasts this with GIGA+'s
dynamic splitting), so every process computes the same placement with no
coordination.  Real PLFS reaches foreign volumes via shadow containers
and metalink stubs; we compute placement directly and note the
simplification in DESIGN.md.
"""

from __future__ import annotations

import zlib
from typing import Generator, List, Optional, Tuple

from ..errors import FileExists, FileNotFound, PLFSError
from ..pfs.namespace import normalize
from ..pfs.volume import Client, Volume
from .config import PlfsConfig

__all__ = ["ContainerLayout", "ACCESS_NAME", "META_DIR", "OPENHOSTS_DIR",
           "GLOBAL_INDEX_NAME", "subdir_name", "data_log_name", "index_log_name",
           "parse_log_name", "meta_dropping_name", "parse_meta_dropping", "openhost_name"]

ACCESS_NAME = ".plfsaccess113918400"  # real PLFS's magic access-file name
META_DIR = "meta"
OPENHOSTS_DIR = "openhosts"
GLOBAL_INDEX_NAME = "global.index"


def subdir_name(s: int) -> str:
    """Directory name of hashed subdir *s*."""
    return f"subdirs.{s}"


def data_log_name(node_id: int, writer_id: int) -> str:
    """One writer's data-log dropping name."""
    return f"dropping.data.{node_id}.{writer_id}"


def index_log_name(node_id: int, writer_id: int) -> str:
    """One writer's index-log dropping name."""
    return f"dropping.index.{node_id}.{writer_id}"


def parse_log_name(name: str) -> Optional[Tuple[str, int, int]]:
    """``(kind, node_id, writer_id)`` from a data- or index-log dropping
    name (*kind* is ``"data"`` or ``"index"``), else None."""
    parts = name.split(".")
    if len(parts) != 4 or parts[0] != "dropping" or parts[1] not in ("data", "index"):
        return None
    try:
        return parts[1], int(parts[2]), int(parts[3])
    except ValueError:
        return None


def openhost_name(node_id: int) -> str:
    """The live-writer mark for one host."""
    return f"host.{node_id}"


def meta_dropping_name(eof: int, nrecords: int, node_id: int, writer_id: int) -> str:
    """Metadata dropping: the *name* carries the info, the file is empty."""
    return f"{eof}.{nrecords}.{node_id}.{writer_id}"


def parse_meta_dropping(name: str) -> Tuple[int, int, int, int]:
    """(eof, records, node, writer) from a dropping name."""
    parts = name.split(".")
    if len(parts) != 4:
        raise PLFSError(f"malformed meta dropping {name!r}")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


class ContainerLayout:
    """Placement and path arithmetic for one logical file's container."""

    def __init__(self, logical_path: str, volumes: List[Volume], cfg: PlfsConfig):
        if not volumes:
            raise PLFSError("PLFS mount needs at least one backing volume")
        self.path = normalize(logical_path)
        self.volumes = volumes
        self.cfg = cfg
        self._home = zlib.crc32(self.path.encode()) % len(volumes)

    # -- placement -----------------------------------------------------------
    @property
    def home_volume(self) -> Volume:
        """Volume holding the container skeleton (and everything, sans federation)."""
        if self.cfg.federation == "none":
            return self.volumes[0]
        return self.volumes[self._home]

    def subdir_volume(self, s: int) -> Volume:
        """Volume hosting subdir *s* under the configured federation."""
        if self.cfg.federation == "subdir":
            return self.volumes[(self._home + s) % len(self.volumes)]
        return self.home_volume

    def subdir_for_writer(self, node_id: int) -> int:
        """Writers hash by host (node) into a subdir, like real PLFS."""
        return node_id % self.cfg.n_subdirs

    # -- paths ----------------------------------------------------------------
    @property
    def access_path(self) -> str:
        """The container's access-file path."""
        return f"{self.path}/{ACCESS_NAME}"

    @property
    def meta_path(self) -> str:
        """The metadata-droppings directory."""
        return f"{self.path}/{META_DIR}"

    @property
    def openhosts_path(self) -> str:
        """The live-writer marks directory."""
        return f"{self.path}/{OPENHOSTS_DIR}"

    @property
    def global_index_path(self) -> str:
        """Index Flatten's single aggregated index file."""
        return f"{self.path}/{GLOBAL_INDEX_NAME}"

    def subdir_path(self, s: int) -> str:
        """Path of hashed subdir *s*."""
        return f"{self.path}/{subdir_name(s)}"

    def data_log_path(self, node_id: int, writer_id: int) -> str:
        """A writer's data log path (hashed by host)."""
        s = self.subdir_for_writer(node_id)
        return f"{self.subdir_path(s)}/{data_log_name(node_id, writer_id)}"

    def index_log_path(self, node_id: int, writer_id: int) -> str:
        """A writer's index log path (hashed by host)."""
        s = self.subdir_for_writer(node_id)
        return f"{self.subdir_path(s)}/{index_log_name(node_id, writer_id)}"

    # -- existence ---------------------------------------------------------------
    def exists(self) -> bool:
        """Is there a container here? (functional check, no time charged)."""
        node = self.home_volume.ns.try_resolve(self.path)
        if node is None or not node.is_dir:
            return False
        return ACCESS_NAME in node.children

    # -- creation / teardown -------------------------------------------------
    def _tmp_skeleton_path(self, client: Client) -> str:
        """Writer-unique staging name, sibling of the container dir."""
        return f"{self.path}.mkdir.{client.node.id}.{client.client_id}"

    def _remove_tmp_skeleton(self, client: Client, tmp: str) -> Generator:
        """Tear down a staged (possibly partial) skeleton at *tmp*."""
        vol = self.home_volume
        for sub in (f"{tmp}/{ACCESS_NAME}",):
            if vol.ns.exists(sub):
                yield from vol.unlink(client, sub)
        for sub in (f"{tmp}/{META_DIR}", f"{tmp}/{OPENHOSTS_DIR}"):
            if vol.ns.exists(sub):
                yield from vol.rmdir(client, sub)
        yield from vol.rmdir(client, tmp)

    def create_skeleton(self, client: Client, *, parents: bool = False) -> Generator:
        """Create the container: dir, access file, meta/, openhosts/.

        Creation is atomic the way real PLFS makes it atomic: the whole
        skeleton is staged under a writer-unique sibling name and then
        ``rename(2)``-ed into place, so a concurrent opener either sees
        no container or a *complete* one — never a directory whose
        ``openhosts/`` has yet to be created.  (The schedule explorer
        found exactly that half-built window in the naive mkdir-first
        ordering: a second writer losing the mkdir race would charge
        ahead and fault on the missing ``openhosts/``.)

        Subdirs are created lazily on first writer touch (see
        :meth:`ensure_subdir`), keeping per-file metadata cost low for N-N
        workloads.  Raises :class:`FileExists` if another writer's rename
        won — callers use that for first-writer-wins racing; the loser's
        staging dir is torn down before the raise.
        """
        vol = self.home_volume
        if parents:
            parent = self.path.rpartition("/")[0]
            if parent:
                yield from vol.makedirs(client, parent)
        tmp = self._tmp_skeleton_path(client)
        if vol.ns.exists(tmp):  # debris of an earlier faulted attempt
            yield from self._remove_tmp_skeleton(client, tmp)
        yield from vol.mkdir(client, tmp)
        fh = yield from vol.open(client, f"{tmp}/{ACCESS_NAME}", "w",
                                 create=True)
        yield from fh.close()
        yield from vol.mkdir(client, f"{tmp}/{META_DIR}")
        yield from vol.mkdir(client, f"{tmp}/{OPENHOSTS_DIR}")
        try:
            yield from vol.rename(client, tmp, self.path)
        except FileExists:
            yield from self._remove_tmp_skeleton(client, tmp)
            raise

    def ensure_skeleton(self, client: Client) -> Generator:
        """Create the container if missing; tolerate losing the race."""
        if not self.exists():
            try:
                yield from self.create_skeleton(client)
            except FileExists:
                pass

    def ensure_subdir(self, client: Client, s: int) -> Generator:
        """Create ``subdirs.s`` (and, under federation, its remote parents)."""
        vol = self.subdir_volume(s)
        path = self.subdir_path(s)
        if vol.ns.exists(path):
            return
        if vol is not self.home_volume and not vol.ns.exists(self.path):
            # Shadow container parent on the foreign volume.  Another writer
            # may race us through each step; losing a race is fine as long
            # as the directory ends up existing.
            try:
                yield from vol.makedirs(client, self.path)
            except FileExists:
                pass
        if not vol.ns.exists(path):
            try:
                yield from vol.mkdir(client, path)
            except FileExists:
                pass

    def all_volumes(self) -> List[Volume]:
        """Volumes that can hold pieces of this container (deduplicated)."""
        seen, out = set(), []
        for s in range(self.cfg.n_subdirs):
            vol = self.subdir_volume(s)
            if id(vol) not in seen:
                seen.add(id(vol))
                out.append(vol)
        if id(self.home_volume) not in seen:
            out.append(self.home_volume)
        return out

    def truncate(self, client: Client) -> Generator:
        """Truncate the logical file to zero: drop every dropping.

        O_TRUNC on a container removes data logs, index logs, metadata
        droppings, and any flattened global index, leaving the skeleton —
        the next writers start a fresh generation.
        """
        if not self.exists():
            raise FileNotFound(self.path)
        home = self.home_volume
        for vol in self.all_volumes():
            for s in range(self.cfg.n_subdirs):
                if self.subdir_volume(s) is not vol:
                    continue
                sub = self.subdir_path(s)
                if not vol.ns.exists(sub):
                    continue
                names = yield from vol.readdir(client, sub)
                for name in names:
                    yield from vol.unlink(client, f"{sub}/{name}")
        meta = home.ns.try_resolve(self.meta_path)
        if meta is not None:
            for name in list(meta.children):
                yield from home.unlink(client, f"{self.meta_path}/{name}")
        if home.ns.exists(self.global_index_path):
            yield from home.unlink(client, self.global_index_path)

    def destroy(self, client: Client) -> Generator:
        """Unlink every dropping and remove the container (logical unlink)."""
        if not self.exists():
            raise FileNotFound(self.path)
        for vol in self.all_volumes():
            node = vol.ns.try_resolve(self.path)
            if node is None:
                continue
            # Depth-first removal, charging each op.
            entries = [(p, n) for p, n in vol.ns.walk(self.path)]
            for p, n in reversed(entries):
                if n.is_dir:
                    yield from vol.rmdir(client, p)
                else:
                    yield from vol.unlink(client, p)
