"""The determinism rule registry.

Each rule names one construct that can make a simulated run differ
between two executions of the *same* configuration — the exact property
the figure pipeline promises never varies.  The registry is data, not
code: the linter (:mod:`repro.analysis.linter`) owns the AST matching,
this module owns the IDs, one-line summaries, and rationale shown by
``python -m repro.analysis rules`` and used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Rule:
    """One determinism rule: stable ID plus human-readable rationale."""

    id: str
    summary: str
    rationale: str


RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "REP001",
            "wall-clock read outside the harness timer",
            "time.time()/datetime.now() and friends leak host wall-clock "
            "into a simulation whose only clock is Engine.now; any value "
            "derived from them differs between runs.  Only the harness "
            "CLI's wall-time progress report may read the host clock.",
        ),
        Rule(
            "REP002",
            "unseeded or process-global random source",
            "random.* module functions, np.random.* legacy globals, and "
            "seedless Random()/default_rng() draw from per-process state "
            "that differs across runs and --jobs workers.  All randomness "
            "must flow through an explicitly seeded generator (see "
            "repro.faults.plan.FaultPlan.rng).",
        ),
        Rule(
            "REP003",
            "salted hash() in a result path",
            "Python string hashing is salted per process "
            "(PYTHONHASHSEED), so hash() values — and anything placed or "
            "ordered by them — differ between runs and between --jobs "
            "workers.  Use zlib.crc32 or an explicit stable key.",
        ),
        Rule(
            "REP004",
            "iteration over an unordered container",
            "dict .values()/.keys()/.items() iterate in insertion order, "
            "which is only as deterministic as the code that inserted; "
            "set iteration is salted for strings.  Where the order can "
            "reach a result table or the event schedule, iterate "
            "sorted(...) or annotate the loop order-insensitive with "
            "# repro: noqa[REP004] and a reason.",
        ),
        Rule(
            "REP005",
            "mutable default argument",
            "A mutable default is shared across calls: state leaks from "
            "one simulated job into the next, making results depend on "
            "call history rather than configuration.",
        ),
        Rule(
            "REP006",
            "float reduction over an unordered iterable",
            "Float addition is not associative: sum()/math.fsum() over "
            ".values() or a set can change in the last bit when the "
            "iteration order changes, which is exactly how figure cells "
            "drift.  Reduce over a sorted or explicitly ordered sequence, "
            "or annotate integer sums with # repro: noqa[REP006].",
        ),
    )
}

__all__ = ["Rule", "RULES"]
