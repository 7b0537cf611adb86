"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  File-system errors mirror POSIX errno names
because the PLFS layer translates between logical and physical namespaces
and must preserve the error a user of the real middleware would see.
"""

from __future__ import annotations

from typing import Iterable


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""


class DeadlockError(SimulationError):
    """The event queue drained while simulated processes were still blocked."""


class RaceConditionError(SimulationError):
    """The yield-point sanitizer caught a write acting on stale shared state.

    Raised (in strict mode) by :mod:`repro.analysis.sanitize` at the exact
    mutation that used a value read before a ``yield`` and invalidated by
    another simulated process in between — the hazard class behind the
    last-closer registry bug fixed in PR 2.
    """


class FSError(ReproError):
    """Base class for simulated-file-system errors.

    :attr:`errno_name` carries the POSIX errno mnemonic so tests can assert
    on the exact failure mode without string matching.
    """

    errno_name: str = "EIO"

    def __init__(self, path: str = "", message: str = "") -> None:
        self.path = path
        detail = message or self.__doc__.strip().splitlines()[0]  # type: ignore[union-attr]
        super().__init__(f"[{self.errno_name}] {detail}: {path!r}" if path else f"[{self.errno_name}] {detail}")


class FileNotFound(FSError):
    """No such file or directory."""

    errno_name = "ENOENT"


class FileExists(FSError):
    """File exists."""

    errno_name = "EEXIST"


class NotADirectory(FSError):
    """A path component is not a directory."""

    errno_name = "ENOTDIR"


class IsADirectory(FSError):
    """The target of a file operation is a directory."""

    errno_name = "EISDIR"


class DirectoryNotEmpty(FSError):
    """Directory not empty."""

    errno_name = "ENOTEMPTY"


class BadFileHandle(FSError):
    """Operation on a closed or invalid file handle."""

    errno_name = "EBADF"


class PermissionDenied(FSError):
    """Operation not permitted by the open mode."""

    errno_name = "EACCES"


class InvalidArgument(FSError):
    """Invalid offset, length, or flag combination."""

    errno_name = "EINVAL"


class UnsupportedOperation(FSError):
    """The layer does not support this operation (e.g. PLFS read-write open)."""

    errno_name = "ENOTSUP"


class TransientIOError(FSError):
    """A component failure that a client may retry (base for degraded modes).

    Raised by the degraded-mode models in ``pfs``/``cluster`` when a fault
    plan has taken a component down.  The retry machinery in
    ``repro.faults.policies`` catches exactly this type: anything else is a
    programming error and propagates.
    """

    errno_name = "EIO"


class StorageUnavailable(TransientIOError):
    """An OSD is down; I/O against it fails until it is restored."""

    errno_name = "EIO"


class MDSUnavailable(TransientIOError):
    """The metadata server crashed; ops fail until failover completes."""

    errno_name = "ETIMEDOUT"


class NetworkPartitioned(TransientIOError):
    """The storage network is partitioned; transfers cannot start."""

    errno_name = "ENETDOWN"


class MPIError(ReproError):
    """Misuse of the simulated MPI runtime (rank/tag/communicator errors)."""


class CollectiveMismatchError(MPIError):
    """Ranks of one communicator issued non-congruent collective traces.

    Raised at job drain by the collective-trace validator
    (``--instrument collectives``): some rank issued a different
    collective, a different root, or skipped one the others issued —
    the runtime confirmation of a static REP101/REP102/REP104 finding.
    """


class PLFSError(ReproError):
    """PLFS container corruption or protocol violation."""


class PartialViewError(PLFSError):
    """A reader assembled only part of the logical file.

    Raised when index logs stay unreachable after retries: the reader
    degrades to the writers it *could* reach instead of hanging, and this
    error names the ones it could not.
    """

    def __init__(self, path: str, missing_writers: Iterable[int],
                 missing_subdirs: Iterable[str] = ()) -> None:
        self.path = path
        self.missing_writers = tuple(sorted(missing_writers))
        self.missing_subdirs = tuple(sorted(missing_subdirs))
        parts: list[str] = []
        if self.missing_writers:
            parts.append(f"index logs unreachable for writer(s) "
                         f"{list(self.missing_writers)}")
        if self.missing_subdirs:
            parts.append(f"subdir(s) {list(self.missing_subdirs)} could not "
                         f"be enumerated (writers there unknown)")
        super().__init__(
            f"partial view of {path!r}: " + "; ".join(parts))


class ConfigError(ReproError):
    """Invalid model or experiment configuration."""
