"""Functional namespace of a simulated file-system volume.

This layer is pure state — directories, files, extents — with no simulated
time; the :class:`~repro.pfs.volume.Volume` facade charges time through the
MDS/OSD models and then applies the state change here.  Keeping state and
timing separate makes correctness properties testable without running the
event loop.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from .data import DataSpec, DataView, ZeroData
from .extents import HOLE, ExtentJournal

__all__ = ["FileData", "Inode", "Namespace", "normalize", "split_path"]

def normalize(path: str) -> str:
    """Collapse a path to canonical '/a/b' form ('' and '/' both mean root)."""
    if (path[:1] == "/" and path[-1] != "/" and "//" not in path
            and "/./" not in path and "/../" not in path
            and not path.endswith(("/.", "/.."))):
        return path  # already canonical: the common case, no allocation
    parts = [p for p in path.split("/") if p not in ("", ".")]
    for p in parts:
        if p == "..":
            raise InvalidArgument(path, "'..' is not supported in simulated paths")
    return "/" + "/".join(parts)


def split_path(path: str) -> Tuple[str, str]:
    """(parent, name) of a normalized path; root has no parent."""
    norm = normalize(path)
    if norm == "/":
        raise InvalidArgument(path, "operation needs a non-root path")
    head, _, name = norm.rpartition("/")
    return (head or "/", name)


class FileData:
    """Content of one regular file: an extent journal over recorded specs."""

    __slots__ = ("journal", "sources", "_stamp")

    def __init__(self) -> None:
        self.journal = ExtentJournal()
        self.sources: List[DataSpec] = []
        self._stamp = itertools.count(1)

    @property
    def size(self) -> int:
        return self.journal.size

    def write(self, offset: int, spec: DataSpec) -> None:
        """Replace [offset, offset+len(spec)) with *spec*'s content."""
        if offset < 0:
            raise InvalidArgument(message=f"negative write offset {offset}")
        if spec.length == 0:
            return
        src = len(self.sources)
        self.sources.append(spec)
        self.journal.append(offset, spec.length, src, 0, stamp=float(next(self._stamp)))

    def append(self, spec: DataSpec) -> int:
        """Write at EOF; returns the offset the data landed at."""
        offset = self.size
        self.write(offset, spec)
        return offset

    def read(self, offset: int, length: int) -> DataView:
        """Content of [offset, offset+length); short reads at EOF, holes as zeros."""
        if offset < 0 or length < 0:
            raise InvalidArgument(message=f"bad read ({offset}, {length})")
        length = max(0, min(length, self.size - offset))
        flat = self.journal.flatten()
        pieces = []
        for seg_start, seg_end, src, src_off in flat.query(offset, length):
            n = seg_end - seg_start
            if src == HOLE:
                pieces.append(ZeroData(n))
            else:
                pieces.append(self.sources[src].slice(src_off, n))
        return DataView(pieces)

    def truncate(self) -> None:
        """Truncate to zero length (recreate-with-O_TRUNC semantics)."""
        self.journal = ExtentJournal()
        self.sources = []


class Inode:
    """A directory or regular file node."""

    __slots__ = ("uid", "is_dir", "children", "data", "nlink", "writers")

    def __init__(self, is_dir: bool, uid: int):
        self.uid = uid
        self.is_dir = is_dir
        self.children: Optional[Dict[str, "Inode"]] = {} if is_dir else None
        self.data: Optional[FileData] = None if is_dir else FileData()
        self.nlink = 1
        self.writers = 0  # open write handles (write-back eligibility)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_dir else f"file[{self.data.size}B]"
        return f"<Inode {self.uid} {kind}>"


class Namespace:
    """A rooted tree of inodes with POSIX-flavoured operations.

    Inode uids come from *uids*: a world passes one counter to all of its
    volumes, so uids are unique within the world and independent of any
    world built before it (uids place file lanes on OSDs).
    """

    def __init__(self, uids: Optional[Iterator[int]] = None) -> None:
        self._uids = uids if uids is not None else itertools.count(1)
        self.root = Inode(True, next(self._uids))
        self.n_files = 0
        self.n_dirs = 1

    # -- resolution ---------------------------------------------------------
    def resolve(self, path: str) -> Inode:
        """Walk *path* to its inode; raises FileNotFound/NotADirectory."""
        node = self.root
        norm = normalize(path)
        if norm == "/":
            return node
        for part in norm[1:].split("/"):
            if not node.is_dir:
                raise NotADirectory(path)
            child = node.children.get(part)
            if child is None:
                raise FileNotFound(path)
            node = child
        return node

    def try_resolve(self, path: str) -> Optional[Inode]:
        """Like :meth:`resolve` but returns None where it would raise.

        Walks the tree itself rather than catching: existence probes miss
        often (every create probes first), and a raise per miss is the
        costliest way to say no.
        """
        node = self.root
        norm = normalize(path)
        if norm == "/":
            return node
        for part in norm[1:].split("/"):
            if not node.is_dir:
                return None
            child = node.children.get(part)
            if child is None:
                return None
            node = child
        return node

    def exists(self, path: str) -> bool:
        """True if *path* resolves to any inode."""
        return self.try_resolve(path) is not None

    def _parent_dir(self, path: str) -> Tuple[Inode, str]:
        parent_path, name = split_path(path)
        parent = self.resolve(parent_path)
        if not parent.is_dir:
            raise NotADirectory(parent_path)
        return parent, name

    # -- mutation -----------------------------------------------------------
    def mkdir(self, path: str) -> Inode:
        """Create one directory; the parent must already exist."""
        parent, name = self._parent_dir(path)
        if name in parent.children:
            raise FileExists(path)
        node = Inode(True, next(self._uids))
        parent.children[name] = node
        self.n_dirs += 1
        return node

    def makedirs(self, path: str) -> Inode:
        """mkdir -p."""
        node = self.root
        norm = normalize(path)
        if norm == "/":
            return node
        for part in norm[1:].split("/"):
            if not node.is_dir:
                raise NotADirectory(path)
            child = node.children.get(part)
            if child is None:
                child = Inode(True, next(self._uids))
                node.children[part] = child
                self.n_dirs += 1
            node = child
        if not node.is_dir:
            raise FileExists(path)
        return node

    def create(self, path: str, *, exclusive: bool = False, truncate: bool = False) -> Inode:
        """Create (or reopen) a regular file, POSIX open(O_CREAT) flavours."""
        parent, name = self._parent_dir(path)
        node = parent.children.get(name)
        if node is not None:
            if exclusive:
                raise FileExists(path)
            if node.is_dir:
                raise IsADirectory(path)
            if truncate:
                node.data.truncate()
            return node
        node = Inode(False, next(self._uids))
        parent.children[name] = node
        self.n_files += 1
        return node

    def unlink(self, path: str) -> None:
        """Remove a regular file."""
        parent, name = self._parent_dir(path)
        node = parent.children.get(name)
        if node is None:
            raise FileNotFound(path)
        if node.is_dir:
            raise IsADirectory(path)
        del parent.children[name]
        self.n_files -= 1

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        parent, name = self._parent_dir(path)
        node = parent.children.get(name)
        if node is None:
            raise FileNotFound(path)
        if not node.is_dir:
            raise NotADirectory(path)
        if node.children:
            raise DirectoryNotEmpty(path)
        del parent.children[name]
        self.n_dirs -= 1

    def rename(self, old: str, new: str) -> None:
        """Atomic rename; the destination must not exist."""
        src_parent, src_name = self._parent_dir(old)
        node = src_parent.children.get(src_name)
        if node is None:
            raise FileNotFound(old)
        dst_parent, dst_name = self._parent_dir(new)
        if dst_name in dst_parent.children:
            raise FileExists(new)
        del src_parent.children[src_name]
        dst_parent.children[dst_name] = node

    # -- inspection -----------------------------------------------------------
    def readdir(self, path: str) -> List[str]:
        """Sorted child names of a directory."""
        node = self.resolve(path)
        if not node.is_dir:
            raise NotADirectory(path)
        return sorted(node.children)

    def walk(self, path: str = "/") -> Iterator[Tuple[str, Inode]]:
        """Depth-first (path, inode) pairs under *path*, inclusive."""
        start = normalize(path)
        node = self.resolve(start)
        stack = [(start, node)]
        while stack:
            p, n = stack.pop()
            yield p, n
            if n.is_dir:
                base = "" if p == "/" else p
                for name in sorted(n.children, reverse=True):
                    stack.append((f"{base}/{name}", n.children[name]))
