"""Lightweight measurement helpers for simulated experiments.

The paper reports *phase times* (open / write / close / read) measured at
each rank and reduced over the job (bulk-synchronous jobs report the max
rank time for a phase, and "effective bandwidth" divides total bytes by the
open-to-close wall interval — footnote 2 of the paper).  These classes keep
that bookkeeping in one place so every workload reports metrics the same
way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["PhaseClock", "JobMetrics"]


class PhaseClock:
    """Per-rank stopwatch accumulating named phase durations.

    >>> clk = PhaseClock()
    >>> clk.start("open", t=0.0); clk.stop("open", t=1.5)
    >>> clk.total("open")
    1.5
    """

    def __init__(self) -> None:
        self._open: Dict[str, float] = {}
        self._total: Dict[str, float] = {}
        self.first_start: Optional[float] = None
        self.last_stop: Optional[float] = None

    def start(self, phase: str, t: float) -> None:
        """Begin timing *phase* at time *t*."""
        if phase in self._open:
            raise ValueError(f"phase {phase!r} already started")
        self._open[phase] = t
        if self.first_start is None or t < self.first_start:
            self.first_start = t

    def stop(self, phase: str, t: float) -> float:
        """End *phase*; returns its duration."""
        t0 = self._open.pop(phase, None)
        if t0 is None:
            raise ValueError(f"phase {phase!r} was not started")
        dt = t - t0
        self._total[phase] = self._total.get(phase, 0.0) + dt
        if self.last_stop is None or t > self.last_stop:
            self.last_stop = t
        return dt

    def total(self, phase: str) -> float:
        """Accumulated time in *phase* (0 if never run)."""
        return self._total.get(phase, 0.0)

    @property
    def phases(self) -> Dict[str, float]:
        """All accumulated phase totals."""
        return dict(self._total)


@dataclass
class JobMetrics:
    """Aggregated result of one simulated job.

    *Effective bandwidth* follows the paper: total bytes moved divided by the
    wall interval from the first rank entering the phase group (open) to the
    last rank leaving it (close).
    """

    nprocs: int
    bytes_total: int = 0
    # Job-level phase times: max over ranks (bulk-synchronous convention).
    phase_max: Dict[str, float] = field(default_factory=dict)
    phase_mean: Dict[str, float] = field(default_factory=dict)
    wall_start: float = math.inf
    wall_end: float = -math.inf
    extra: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_rank_clocks(cls, clocks: List[PhaseClock], bytes_total: int) -> "JobMetrics":
        """Reduce per-rank clocks the way the paper reports (max over ranks)."""
        m = cls(nprocs=len(clocks), bytes_total=bytes_total)
        names = sorted({p for c in clocks for p in c.phases})
        for p in names:
            vals = [c.total(p) for c in clocks]
            m.phase_max[p] = max(vals)
            m.phase_mean[p] = sum(vals) / len(vals)
        starts = [c.first_start for c in clocks if c.first_start is not None]
        stops = [c.last_stop for c in clocks if c.last_stop is not None]
        if starts:
            m.wall_start = min(starts)
        if stops:
            m.wall_end = max(stops)
        return m

    @property
    def wall_time(self) -> float:
        """First phase start to last phase stop."""
        if self.wall_end < self.wall_start:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def effective_bandwidth(self) -> float:
        """Bytes per second over the full open..close interval (paper's metric)."""
        wt = self.wall_time
        return self.bytes_total / wt if wt > 0 else 0.0
