"""FaultPlan: deterministic, seeded schedules of component failures.

§I of the paper argues from failure rates: exascale machines fail often
enough that checkpoint I/O *is* the workload.  A :class:`FaultPlan` makes
failure a first-class, reproducible input — a sorted schedule of
:class:`FaultEvent` records plus a seed, from which every stochastic draw
in a fault run (schedule generation, retry jitter, the campaign's
compute-failure clock) derives through named, process-stable substreams.
The same plan therefore replays bit-identically: across repeated runs,
across harness ``--jobs`` counts, and across machines.

Event kinds
-----------
``osd_outage``     one OSD is down for ``duration`` (new I/O raises EIO,
                   in-flight service stalls frozen until restore)
``mds_crash``      the MDS crashes, dropping queued ops; a standby is
                   promoted after ``duration`` (detection + promotion)
``writer_kill``    rank ``target`` of the instrumented job dies once it has
                   acknowledged ``magnitude`` bytes (a byte-offset kill;
                   ``time`` is not consulted)

The first two are *component* faults, compiled onto the world by
:class:`repro.faults.injector.FaultInjector`; a writer kill is consumed at
the workload layer.  These are exactly the kinds the resilience
experiment (``harness faults``) injects.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from ..errors import ConfigError

__all__ = ["FAULT_KINDS", "COMPONENT_KINDS", "FaultEvent", "FaultPlan",
           "FailureClock"]

COMPONENT_KINDS = frozenset({"osd_outage", "mds_crash"})

FAULT_KINDS = COMPONENT_KINDS | {"writer_kill"}


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault.  Field meaning per kind is in the module doc."""

    time: float
    kind: str
    target: int = 0
    duration: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; choose from {sorted(FAULT_KINDS)}")
        if self.time < 0 or self.duration < 0:
            raise ConfigError(f"fault times must be non-negative: {self}")
        if self.target < 0:
            raise ConfigError(f"fault target must be non-negative: {self}")


def _substream(seed: int, stream: str, index: int) -> "numpy.random.Generator":
    """A process-stable named substream of the plan's seed.

    ``crc32`` rather than ``hash()`` because Python string hashing is
    salted per process — worker processes in a ``--jobs N`` sweep must
    derive identical streams.  numpy is imported here, not at module
    level, so a run without faults never loads it.
    """
    import numpy as np

    return np.random.default_rng(
        [seed & 0xFFFFFFFF, zlib.crc32(stream.encode("utf-8")), index])


class FailureClock:
    """Lazy source of absolute compute-failure times for a campaign.

    Arrivals form a renewal process with exponential gaps of mean *mtbf*
    drawn from the plan's ``campaign-failures`` substream — the classic
    memoryless platform-failure model, seeded through the plan instead of
    a private ``random.Random``.
    """

    def __init__(self, rng: "numpy.random.Generator", mtbf: Optional[float]):
        self._rng = rng
        self._mtbf = mtbf

    def next_failure(self, after: float) -> float:
        """The first failure time strictly after *after* (inf if none)."""
        if self._mtbf is None or not (self._mtbf < float("inf")):
            return float("inf")
        return after + float(self._rng.exponential(self._mtbf))


class FaultPlan:
    """An immutable, seeded schedule of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = (), *, seed: int = 0):
        self.events: Tuple[FaultEvent, ...] = tuple(sorted(events))
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, {len(self.events)} events)"

    # -- derived streams ---------------------------------------------------
    def rng(self, stream: str, index: int = 0) -> "numpy.random.Generator":
        """A named substream of this plan's seed (process-stable)."""
        return _substream(self.seed, stream, index)

    def failure_clock(self, mtbf: Optional[float] = None) -> FailureClock:
        """The campaign's compute-failure clock (see :class:`FailureClock`)."""
        return FailureClock(self.rng("campaign-failures"), mtbf)

    # -- views -------------------------------------------------------------
    @property
    def component_events(self) -> Tuple[FaultEvent, ...]:
        """Events the injector compiles onto the world."""
        return tuple(ev for ev in self.events if ev.kind in COMPONENT_KINDS)

    def writer_kills(self) -> dict:
        """``rank -> FaultEvent`` for writer kills (first kill per rank wins)."""
        out: dict = {}
        for ev in self.events:
            if ev.kind == "writer_kill" and ev.target not in out:
                out[ev.target] = ev
        return out

    def signature(self) -> str:
        """Deterministic digest of the full schedule (for bit-identity tests)."""
        h = hashlib.sha256()
        h.update(str(self.seed).encode())
        for ev in self.events:
            h.update(repr((ev.time, ev.kind, ev.target, ev.duration,
                           ev.magnitude)).encode())
        return h.hexdigest()[:16]

    # -- generation --------------------------------------------------------
    @classmethod
    def generate(cls, seed: int, *, horizon: float, mtbf: float,
                 kinds: Sequence[str] = ("osd_outage",),
                 n_osds: int = 1,
                 outage_duration: float = 2.0,
                 detection_delay: float = 1.0) -> "FaultPlan":
        """A random plan of component faults: per kind, Poisson arrivals of
        mean gap *mtbf*.

        Each kind draws from its own substream, so adding a kind to the mix
        never perturbs the schedules of the others.  An outage's OSD comes
        from the same per-kind stream.  Writer kills are placed by hand
        (byte offsets, not times), so *kinds* may name only
        :data:`COMPONENT_KINDS`.
        """
        if not (horizon > 0) or not (mtbf > 0):
            raise ConfigError("horizon and mtbf must be positive")
        events = []
        for kind in kinds:
            if kind not in COMPONENT_KINDS:
                raise ConfigError(
                    f"cannot generate fault kind {kind!r}; choose from "
                    f"{sorted(COMPONENT_KINDS)}")
            rng = _substream(seed, "gen:" + kind, 0)
            t = float(rng.exponential(mtbf))
            while t < horizon:
                if kind == "osd_outage":
                    ev = FaultEvent(t, kind, target=int(rng.integers(n_osds)),
                                    duration=outage_duration)
                else:  # mds_crash
                    ev = FaultEvent(t, kind, duration=detection_delay)
                events.append(ev)
                t += float(rng.exponential(mtbf))
        return cls(events, seed=seed)
