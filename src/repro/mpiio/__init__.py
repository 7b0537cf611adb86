"""MPI-IO layer: File API, ADIO drivers (UFS/PLFS), two-phase collective I/O."""

from .adio import Driver, PlfsDriver, UfsDriver
from .file import MPIFile

__all__ = ["Driver", "PlfsDriver", "UfsDriver", "MPIFile"]
