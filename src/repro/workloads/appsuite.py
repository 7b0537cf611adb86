"""The Fig. 2 application suite: N-1 write patterns from real HPC codes.

Fig. 2 summarizes PLFS's N-1 write speedups across applications (up to
150x, the paper's headline).  The apps differ mainly in their record
shapes: the smaller and less aligned the strided records, the worse the
underlying file system's lock ping-pong and parity read-modify-write get,
and the bigger PLFS's win.  Record sizes below follow the applications'
published I/O shapes (BTIO's large blocks, QCD's ~3/4 MiB, FLASH's ~100 KB
HDF5 chunks, LANL 2's notoriously tiny unaligned records); per-process
volumes are scaled to simulation-friendly defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..units import KiB, MB, MiB
from .base import Workload
from .kernels import LANL3
from .synthetic import MPIIOTest

__all__ = ["AppSpec", "app_suite"]


@dataclass(frozen=True)
class AppSpec:
    """One Fig. 2 application: a label and a workload factory."""

    label: str
    make: Callable[[int], Workload]


def app_suite(scale: float = 1.0) -> List[AppSpec]:
    """The Fig. 2 suite; *scale* multiplies per-process data volumes."""

    def sz(n: int) -> int:
        return max(1, int(n * scale))

    return [
        AppSpec(
            label="LANL 2",
            make=lambda n: MPIIOTest(n, size_per_proc=sz(2 * MB), transfer=3808,
                                     layout="strided", name="app-lanl2"),
        ),
        AppSpec(
            label="FLASH io",
            make=lambda n: MPIIOTest(n, size_per_proc=sz(4 * MB), transfer=100 * 1000,
                                     layout="strided", name="app-flash"),
        ),
        AppSpec(
            label="Chombo io",
            make=lambda n: MPIIOTest(n, size_per_proc=sz(3 * MB), transfer=37 * KiB,
                                     layout="strided", name="app-chombo"),
        ),
        AppSpec(
            label="QCD",
            make=lambda n: MPIIOTest(n, size_per_proc=sz(12 * MiB), transfer=768 * KiB,
                                     layout="strided", name="app-qcd"),
        ),
        AppSpec(
            label="LANL 1",
            make=lambda n: MPIIOTest(n, size_per_proc=sz(8 * MB), transfer=500 * 1000,
                                     layout="strided", name="app-lanl1"),
        ),
        AppSpec(
            label="BTIO",
            # BT's cell sizes make the records large but never stripe-aligned.
            make=lambda n: MPIIOTest(n, size_per_proc=sz(32 * MB), transfer=8 * MB + 40 * 1000,
                                     layout="strided", name="app-btio"),
        ),
        AppSpec(
            label="LANL 3",
            make=lambda n: LANL3(n, total_bytes=sz(512 * MiB), round_bytes=32 * MiB),
        ),
    ]
