"""ADIO: the abstract device interface under MPI-IO (Thakur et al. [13]).

The paper's third PLFS interface is an ADIO driver inside MPI-IO (§II):
rerouting MPI-IO calls into the PLFS library while inheriting the job's
communicator — which is what makes the collective index optimizations
possible.  We mirror that structure: :class:`MPIFile` (in
:mod:`repro.mpiio.file`) speaks to one of two drivers:

* :class:`UfsDriver` — pass-through to a backing volume (direct parallel
  file system access, the paper's "without PLFS" baseline);
* :class:`PlfsDriver` — routes through :class:`repro.plfs.PlfsMount`.

The driver is the one place that knows PLFS from direct access, and it
*is* the stack: workloads, metadata storms, campaigns and the fault
experiment pick one by name (``"direct"`` or ``"plfs"``) and reach storage
through its ``mkdir``/``open``/``write_at``/``read_at``/``close``.  One
driver serves every rank of a job; it holds only its volume or mount and
its retry policy.
"""

from __future__ import annotations

from typing import Generator, Union

from ..errors import InvalidArgument, UnsupportedOperation
from ..faults.policies import RetryPolicy, retrying
from ..pfs.data import DataSpec
from ..pfs.volume import Client, Volume
from ..plfs.api import PlfsMount
from ..plfs.reader import PlfsReadHandle
from ..plfs.writer import PlfsWriteHandle

__all__ = ["Driver", "UfsDriver", "PlfsDriver"]


class UfsDriver:
    """Direct access to the underlying parallel file system."""

    name = "direct"

    def __init__(self, volume: Volume, retry: RetryPolicy = None):
        self.volume = volume
        self.retry = retry

    def mkdir(self, client: Client, path: str) -> Generator:
        """Create the missing components on the backing volume."""
        yield from self.volume.makedirs(client, path)

    def open(self, client: Client, comm, path: str, mode: str) -> Generator:
        """Open on the backing volume; rank 0 creates/truncates shared files."""
        if mode not in ("r", "w", "rw"):
            raise InvalidArgument(path, f"bad mode {mode!r}")
        env = self.volume.env
        creating = "w" in mode
        if comm is not None and comm.size > 1 and creating:
            # Rank 0 creates (and truncates); everyone else opens after.
            # Each rank retries only its own open, never the bcast — a
            # retried collective would desynchronize the communicator.
            if comm.rank == 0:
                fh = yield from retrying(env, self.retry, lambda: self.volume.open(
                    client, path, mode, create=True, truncate=True))
                yield from comm.bcast(None, nbytes=8, root=0)
            else:
                yield from comm.bcast(None, nbytes=8, root=0)
                fh = yield from retrying(env, self.retry, lambda: self.volume.open(
                    client, path, mode))
        else:
            fh = yield from retrying(env, self.retry, lambda: self.volume.open(
                client, path, mode, create=creating, truncate=creating))
        return fh

    def write_at(self, handle, offset: int, spec: DataSpec) -> Generator:
        """Pass-through pwrite (retried whole under the driver's policy)."""
        yield from retrying(self.volume.env, self.retry,
                            lambda: handle.write(offset, spec))

    def read_at(self, handle, offset: int, length: int) -> Generator:
        """Pass-through pread (retried whole under the driver's policy)."""
        view = yield from retrying(self.volume.env, self.retry,
                                   lambda: handle.read(offset, length))
        return view

    def close(self, handle, comm) -> Generator:
        """Plain close (independent, retried under the driver's policy)."""
        yield from retrying(self.volume.env, self.retry, lambda: handle.close())


class PlfsDriver:
    """MPI-IO routed through the PLFS middleware (the paper's ADIO layer)."""

    name = "plfs"

    def __init__(self, mount: PlfsMount, retry: RetryPolicy = None):
        self.mount = mount
        self.retry = retry

    def mkdir(self, client: Client, path: str) -> Generator:
        """Logical mkdir on every volume containers can hash to."""
        yield from self.mount.mkdir(client, path)

    def open(self, client: Client, comm, path: str, mode: str) -> Generator:
        """Route to PLFS open_write/open_read; rejects read-write mode.

        The retry policy rides on the returned handle, so write_at/read_at
        below stay pass-throughs — the PLFS layers do their own retrying.
        """
        if mode == "rw":
            raise UnsupportedOperation(
                path, "PLFS does not support read-write opens of shared files")
        if mode == "w":
            handle = yield from self.mount.open_write(client, path, comm,
                                                      retry=self.retry)
        else:
            handle = yield from self.mount.open_read(client, path, comm,
                                                     retry=self.retry)
        return handle

    def write_at(self, handle, offset: int, spec: DataSpec) -> Generator:
        """Logical write -> log append + index record."""
        if not isinstance(handle, PlfsWriteHandle):
            raise UnsupportedOperation(message="write on a read-only PLFS handle")
        yield from handle.write(offset, spec)

    def read_at(self, handle, offset: int, length: int) -> Generator:
        """Logical read resolved through the global index."""
        if not isinstance(handle, PlfsReadHandle):
            raise UnsupportedOperation(message="read on a write-only PLFS handle")
        view = yield from handle.read(offset, length)
        return view

    def close(self, handle, comm) -> Generator:
        """Close; write handles run the configured flatten collectively."""
        if isinstance(handle, PlfsWriteHandle):
            yield from self.mount.close_write(handle, comm)
        else:
            yield from handle.close()


Driver = Union[UfsDriver, PlfsDriver]
