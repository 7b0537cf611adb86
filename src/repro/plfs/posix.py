"""The FUSE-style POSIX view of a PLFS mount (§II's "most transparent" path).

The paper's first interface is a FUSE mount point: applications just use
open/read/write/seek/close and never know the middleware exists.  This
adapter is that view for simulated non-MPI applications: cursor-based
file objects over a :class:`~repro.plfs.api.PlfsMount`, one adapter per
process (it carries the client identity a FUSE server process would).

Because there is no communicator on this path, reads fall back to the
uncoordinated Original index aggregation — exactly the real FUSE
limitation that motivated the paper's MPI-IO driver (§II, §IV).
"""

from __future__ import annotations

from typing import Generator

from ..errors import BadFileHandle, InvalidArgument, UnsupportedOperation
from ..pfs.data import DataSpec, DataView
from ..pfs.volume import Client
from .api import PlfsMount

__all__ = ["PosixAdapter", "PlfsPosixFile"]

SEEK_SET, SEEK_CUR, SEEK_END = 0, 1, 2


class PlfsPosixFile:
    """A cursor-based file object over a PLFS logical file."""

    def __init__(self, adapter: "PosixAdapter", handle, mode: str, path: str):
        self._adapter = adapter
        self._handle = handle
        self.mode = mode
        self.path = path
        self._pos = 0
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise BadFileHandle(self.path)

    # -- position ---------------------------------------------------------------
    def tell(self) -> int:
        """Current cursor position."""
        return self._pos

    def seek(self, offset: int, whence: int = SEEK_SET) -> int:
        """Move the cursor (SET/CUR/END); returns the new position."""
        self._check_open()
        if whence == SEEK_SET:
            pos = offset
        elif whence == SEEK_CUR:
            pos = self._pos + offset
        elif whence == SEEK_END:
            pos = self.size() + offset
        else:
            raise InvalidArgument(self.path, f"bad whence {whence}")
        if pos < 0:
            raise InvalidArgument(self.path, f"seek before start ({pos})")
        self._pos = pos
        return pos

    def size(self) -> int:
        """Logical file size as this handle sees it."""
        if self.mode == "r":
            return self._handle.size
        return self._handle.eof

    # -- I/O -----------------------------------------------------------------------
    def write(self, spec: DataSpec) -> Generator:
        """Write at the cursor; returns bytes written."""
        self._check_open()
        if self.mode != "w":
            raise UnsupportedOperation(self.path, "file not open for writing")
        yield from self._handle.write(self._pos, spec)
        self._pos += spec.length
        return spec.length

    def read(self, length: int = -1) -> Generator:
        """Read from the cursor; ``-1`` reads to EOF. Returns a DataView."""
        self._check_open()
        if self.mode != "r":
            raise UnsupportedOperation(self.path, "file not open for reading")
        if length < 0:
            length = max(0, self.size() - self._pos)
        view = yield from self._handle.read(self._pos, length)
        self._pos += view.length
        return view

    def close(self) -> Generator:
        """Close (write mode runs the mount's close-write path)."""
        self._check_open()
        if self.mode == "w":
            yield from self._adapter.mount.close_write(self._handle, None)
        else:
            yield from self._handle.close()
        self.closed = True


class PosixAdapter:
    """One process's POSIX-flavoured view of a PLFS mount."""

    def __init__(self, mount: PlfsMount, client: Client):
        self.mount = mount
        self.client = client

    def open(self, path: str, mode: str = "r") -> Generator:
        """Open a logical file; modes ``"r"``, ``"w"`` (create/truncate),
        ``"a"`` (create, cursor at EOF)."""
        if mode not in ("r", "w", "a"):
            raise InvalidArgument(path, f"bad posix mode {mode!r}")
        if mode == "r":
            handle = yield from self.mount.open_read(self.client, path, None)
            return PlfsPosixFile(self, handle, "r", path)
        handle = yield from self.mount.open_write(self.client, path, None,
                                                  truncate=(mode == "w"))
        f = PlfsPosixFile(self, handle, "w", path)
        if mode == "a":
            # Appending continues after everything any writer has dropped.
            st = yield from self.mount.stat(self.client, path)
            f._pos = st.size
        return f

    # -- namespace -------------------------------------------------------------
    def stat(self, path: str) -> Generator:
        """Logical stat via metadata droppings."""
        st = yield from self.mount.stat(self.client, path)
        return st

    def exists(self, path: str) -> bool:
        """True if a logical file (container) exists at *path*."""
        return self.mount.exists(path)

    def listdir(self, path: str) -> Generator:
        """Logical directory listing (container internals hidden)."""
        names = yield from self.mount.readdir(self.client, path)
        return names

    def unlink(self, path: str) -> Generator:
        """Remove a logical file (the whole container)."""
        yield from self.mount.unlink(self.client, path)

    def mkdir(self, path: str) -> Generator:
        """Create a logical directory on every backing volume."""
        yield from self.mount.mkdir(self.client, path)
