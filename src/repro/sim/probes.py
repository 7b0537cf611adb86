"""Time-series probes: watch a resource's throughput as the run unfolds.

Counters (busy time, totals) say *how much*; probes say *when*.  A
:class:`BandwidthProbe` samples a fair-share server's cumulative service
on a fixed period, yielding a `(time, rate)` series — the I/O-phase
timeline plots storage papers live on (burst, drain, idle gap, next
burst).

    probe = BandwidthProbe(env, volume.storage_net.pipe, period=0.1)
    ... run the workload ...
    for t, rate in probe.series():
        ...

A probe is a ``quiescent`` observer on the engine's bus (see
:class:`~repro.sim.engine.Engine`): it schedules no events, so it can
neither keep a run alive nor change what the run computes.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import SimulationError
from .engine import Engine
from .resources import FairShareServer

__all__ = ["BandwidthProbe", "summarize_probe"]


class BandwidthProbe:
    """Periodic sampler of a :class:`FairShareServer`'s *delivered* units/second.

    Between two drained instants no event fires, so the server's delivered
    work grows linearly; at each drained instant the probe reads it and
    interpolates the value at every period boundary it has passed.
    """

    def __init__(self, env: Engine, server: FairShareServer, period: float,
                 name: str = ""):
        if period <= 0:
            raise SimulationError(f"probe period must be positive, got {period}")
        self.env = env
        self.server = server
        self.period = period
        self.name = name or getattr(server, "name", "probe")
        self._samples: List[Tuple[float, float]] = []
        self._t0 = env.now
        self._k = 1  # index of the next period boundary
        self._last = (env.now, server.work_delivered())  # last drained instant
        self._boundary_work = self._last[1]  # delivered at the last boundary
        self._running = True
        env.subscribe(self)

    def quiescent(self, now: float) -> None:
        if not self._running:
            return
        work = self.server.work_delivered()
        t_prev, w_prev = self._last
        boundary = self._t0 + self._k * self.period
        while boundary <= now:
            w = w_prev + (work - w_prev) * (boundary - t_prev) / (now - t_prev)
            self._samples.append((boundary, (w - self._boundary_work) / self.period))
            self._boundary_work = w
            self._k += 1
            boundary = self._t0 + self._k * self.period
        self._last = (now, work)

    def stop(self) -> None:
        """Stop sampling now."""
        if self._running:
            self._running = False
            self.env.unsubscribe(self)

    def series(self) -> List[Tuple[float, float]]:
        """(sample time, average rate over the preceding period) pairs."""
        return list(self._samples)

    def peak(self) -> float:
        """Highest sampled rate."""
        return max((r for _, r in self._samples), default=0.0)

    def mean(self) -> float:
        """Mean sampled rate over the probe's lifetime."""
        if not self._samples:
            return 0.0
        return sum(r for _, r in self._samples) / len(self._samples)


def summarize_probe(probe: BandwidthProbe, capacity: float) -> Tuple[float, float, float]:
    """(peak rate, mean rate, duty cycle vs *capacity*) for a probe."""
    samples = probe.series()
    if not samples or capacity <= 0:
        return (0.0, 0.0, 0.0)
    peak = probe.peak()
    mean = probe.mean()
    busy = sum(1 for _, r in samples if r > 0.01 * capacity)
    return (peak, mean, busy / len(samples))
