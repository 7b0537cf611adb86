"""MPI-IO hints (the subset the paper's workloads use).

Collective buffering (§IV-D6, [18]): two-phase I/O that funnels many
ranks' small strided accesses through a few aggregator ranks which issue
large contiguous requests.  The paper enables it for LANL 3 (1024-byte
records) via hints, exactly as ROMIO's ``romio_cb_write`` would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["Hints"]


@dataclass(frozen=True)
class Hints:
    """Per-open MPI-IO hints."""

    cb_enable: bool = False       # two-phase collective buffering on *_all ops
    cb_nodes: int = 0             # aggregator count; 0 = one per compute node

    def __post_init__(self) -> None:
        if self.cb_nodes < 0:
            raise ConfigError("cb_nodes must be >= 0")
