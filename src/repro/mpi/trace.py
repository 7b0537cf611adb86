"""Runtime collective-trace recording and congruence validation.

The static analyzer (:mod:`repro.analysis.collectives`) proves rank
congruence where it can and is conservative where it cannot — unresolved
calls, opaque summaries, justified ``noqa`` sites.  This module is the
runtime half of the contract: with a :class:`CollectiveTracer` on the
engine's observer bus (``--instrument collectives`` in the harness), it
receives the ``collective`` layer event :class:`~repro.mpi.comm.Comm`
publishes for every top-level collective a rank issues, records it as
``(op, root)`` against its communicator, and at each ``job_drain`` event
(:func:`~repro.mpi.runtime.run_job`) asserts that every rank of every
communicator issued the *same* sequence with the *same* roots.  A static
finding is confirmed by a non-congruent trace and dismissed by a
congruent one — each with a replayable run.

Recording is per-communicator, keyed by object identity, so the
sub-communicators of ``split`` validate independently (each color group
must be internally congruent; the groups legitimately differ from each
other).  Composite collectives (``barrier``, ``allgather``,
``allreduce``, ``split``) record once — their nested ``gather``/
``bcast`` building blocks are suppressed by a per-rank depth counter —
so the trace matches the caller's source, which is what the analyzer
models.  ``split`` records root ``None``: its color argument varies by
rank by design.

The tracer is off by default; with no ``collective`` subscriber a
collective call costs one bus lookup (benchmarks/bench_analysis.py
guards the overhead at <2%).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import CollectiveMismatchError

__all__ = [
    "CollectiveTracer", "attach_tracer", "validate_comm", "validate_tracer",
]

# One recorded collective: (operation name, root argument or None).
TraceEntry = Tuple[str, Optional[int]]


class CollectiveTracer:
    """Per-communicator, per-rank collective sequence recorder.

    An observer on the engine's bus for the ``collective`` and
    ``job_drain`` layer events.  ``strict`` decides what a detected
    mismatch does at job drain: raise
    :class:`~repro.errors.CollectiveMismatchError` (harness runs) or
    merely be reported by :func:`validate_comm` for the caller to collect
    (the model checker's oracle mode).
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        # id(Communicator) -> (Communicator, {rank: [entries]}).  Keyed
        # by identity: split() makes one Communicator per color, and
        # congruence is a per-communicator property.
        self._traces: Dict[int, Tuple[Any, Dict[int, List[TraceEntry]]]] = {}
        self._order: List[int] = []  # deterministic reporting order

    # -- layer events -------------------------------------------------------
    def collective(self, shared: Any, rank: int, op: str,
                   root: Optional[int]) -> None:
        """One top-level collective entered by *rank* on *shared*."""
        key = id(shared)
        if key not in self._traces:
            self._traces[key] = (shared, {})
            self._order.append(key)
        self._traces[key][1].setdefault(rank, []).append((op, root))

    def job_drain(self, shared: Any, job_name: str,
                  stuck: Optional[str]) -> None:
        """Validate a drained job's communicator and its splits.

        *stuck* is the job's deadlock report, or None when every rank
        finished.  A rank-divergent collective usually *causes* the hang,
        so a mismatch then replaces the generic report, strict or not.
        """
        errors = validate_comm(self, shared)
        if not errors:
            return
        if stuck is not None:
            raise CollectiveMismatchError(
                stuck + "\n  non-congruent collective traces:\n  "
                + "\n  ".join(errors))
        if self.strict:
            raise CollectiveMismatchError(
                f"job {job_name!r}: non-congruent collective traces "
                f"({len(errors)} communicator(s)):\n  " + "\n  ".join(errors))

    # -- validation ---------------------------------------------------------
    def trace_of(self, shared: Any) -> Dict[int, List[TraceEntry]]:
        """rank -> recorded sequence for *shared* (empty if untouched)."""
        entry = self._traces.get(id(shared))
        return entry[1] if entry is not None else {}

    def comms(self) -> List[Any]:
        """Every communicator that ran a collective, in first-use order."""
        return [self._traces[k][0] for k in self._order]


def _mismatch_of(shared: Any,
                 by_rank: Dict[int, List[TraceEntry]]) -> Optional[str]:
    """Describe the first non-congruence on one communicator, or None."""
    if not by_rank:
        return None  # no collectives on this comm: trivially congruent
    size = getattr(shared, "size", max(by_rank) + 1)
    name = getattr(shared, "name", "comm")
    seqs = {r: by_rank.get(r, []) for r in range(size)}
    longest = max(len(s) for s in seqs.values())
    for i in range(longest):
        entries = {r: (s[i] if i < len(s) else None)
                   for r, s in sorted(seqs.items())}
        distinct = set(entries.values())
        if len(distinct) == 1:
            continue
        parts = []
        for r in sorted(entries):
            e = entries[r]
            parts.append(f"rank {r}: " + (
                f"{e[0]}(root={e[1]})" if e is not None else "(nothing)"))
        return (f"communicator {name!r}: per-rank traces diverge at "
                f"collective #{i}: " + "; ".join(parts))
    return None


def validate_comm(tracer: CollectiveTracer, shared: Any) -> List[str]:
    """Congruence errors for *shared* and (recursively) its splits."""
    errors: List[str] = []
    msg = _mismatch_of(shared, tracer.trace_of(shared))
    if msg is not None:
        errors.append(msg)
    splits = getattr(shared, "_splits", None)
    if splits:
        for key in sorted(splits, key=repr):
            errors.extend(validate_comm(tracer, splits[key]))
    return errors


def validate_tracer(tracer: CollectiveTracer) -> List[str]:
    """Congruence errors across every communicator the tracer saw."""
    errors: List[str] = []
    for shared in tracer.comms():
        msg = _mismatch_of(shared, tracer.trace_of(shared))
        if msg is not None:
            errors.append(msg)
    return errors


def attach_tracer(env: Any, strict: bool = True) -> CollectiveTracer:
    """Subscribe a :class:`CollectiveTracer` to *env*'s bus; idempotent
    (returns the tracer already subscribed, if any)."""
    for obs in env.observers:
        if isinstance(obs, CollectiveTracer):
            return obs
    return env.subscribe(CollectiveTracer(strict=strict))
