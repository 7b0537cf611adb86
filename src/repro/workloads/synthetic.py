"""Synthetic benchmarks: LANL's MPI-IO Test and LLNL's IOR.

``MPIIOTest`` is the tunable workload generator behind the paper's Fig. 4
and Fig. 8 ("Each concurrent I/O stream writes/reads 50 MB in 50 KB
increments", §IV-C): N-1 strided, N-1 segmented, or N-N file-per-process.

``IOR`` reproduces the §IV-D3 configuration: shared file, each process
accessing 50 MB in 1 MB increments (segmented), read-write mode patched
out because PLFS rejects it.
"""

from __future__ import annotations

from typing import Iterator, List

from ..errors import ConfigError
from ..units import KB, MB
from .base import Extent, Workload

__all__ = ["MPIIOTest", "IOR"]

_LAYOUTS = ("strided", "segmented", "nn")


class MPIIOTest(Workload):
    """LANL MPI-IO Test: tunable size / transfer / layout generator [14]."""

    name = "mpiio_test"

    def __init__(self, nprocs: int, *, size_per_proc: int = 50 * MB,
                 transfer: int = 50 * KB, layout: str = "strided",
                 name: str = ""):
        super().__init__(nprocs)
        if layout not in _LAYOUTS:
            raise ConfigError(f"layout must be one of {_LAYOUTS}, got {layout!r}")
        if size_per_proc < 1 or transfer < 1:
            raise ConfigError("size_per_proc and transfer must be >= 1")
        self.size_per_proc = size_per_proc
        self.transfer = transfer
        self.layout = layout
        self.shared_file = layout != "nn"
        self.name = name or f"mpiio_test-{layout}"

    def write_rounds(self, rank: int) -> Iterator[List[Extent]]:
        size, xfer, n = self.size_per_proc, self.transfer, self.nprocs
        written, i = 0, 0
        while written < size:
            ln = min(xfer, size - written)
            if self.layout == "strided":
                off = rank * xfer + i * n * xfer
            elif self.layout == "segmented":
                off = rank * size + written
            else:  # nn: own file, contiguous
                off = written
            yield [(off, ln)]
            written += ln
            i += 1

    def bytes_per_rank(self, rank: int) -> int:
        """Closed form of the round sum: the plan writes size_per_proc bytes."""
        return self.size_per_proc


class IOR(Workload):
    """IOR [16] as the paper ran it: N-1 segmented, 50 MB per proc, 1 MB ops."""

    name = "ior"

    def __init__(self, nprocs: int, *, size_per_proc: int = 50 * MB,
                 transfer: int = 1 * MB):
        super().__init__(nprocs)
        if size_per_proc < 1 or transfer < 1:
            raise ConfigError("size_per_proc and transfer must be >= 1")
        self.size_per_proc = size_per_proc
        self.transfer = transfer

    def write_rounds(self, rank: int) -> Iterator[List[Extent]]:
        written = 0
        base = rank * self.size_per_proc
        while written < self.size_per_proc:
            ln = min(self.transfer, self.size_per_proc - written)
            yield [(base + written, ln)]
            written += ln

    def bytes_per_rank(self, rank: int) -> int:
        """Closed form of the round sum: the plan writes size_per_proc bytes."""
        return self.size_per_proc
