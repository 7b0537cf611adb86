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
        Rule(
            "REP007",
            "registry read separated from its write by a yield",
            "A value read from a tracked() shared registry is stale after "
            "any yield: the event loop may run another process that "
            "mutates the registry at the same simulated instant (the "
            "PR 2 last-closer bug was exactly a zero-refcount check "
            "cached across metadata ops).  Re-read after resuming, or "
            "restructure so the read and the dependent write straddle no "
            "yield; a # repro: noqa[REP007] with a reason documents a "
            "site proven atomic by other means.",
        ),
        Rule(
            "REP101",
            "collective under a rank-dependent branch, arms not congruent",
            "A collective reached only when a rank-dependent predicate "
            "holds (if comm.rank == 0: comm.bcast(...)) is issued by "
            "some ranks and skipped by others of the same communicator. "
            "In real MPI the skipped ranks hang the job; in this "
            "simulator the per-communicator tag counter desynchronizes "
            "and later collectives silently cross-match each other's "
            "messages.  Hoist the collective out of the branch, make "
            "both arms issue a congruent sequence, or split() a sub-"
            "communicator so each color group is internally uniform.",
        ),
        Rule(
            "REP102",
            "rank-dependent root= argument of a collective",
            "Every rank of a communicator must name the same root in "
            "the same collective: a root derived from comm.rank makes "
            "ranks address different binomial trees at once.  Roots "
            "must be provably uniform — a constant, a caller-supplied "
            "parameter, or a value previously bcast/allreduced (whose "
            "results the taint analysis treats as uniform).",
        ),
        Rule(
            "REP103",
            "unmatched or cyclically-waiting send/recv pairing",
            "A recv whose (peer, tag) class no send ever posts waits "
            "forever; a symmetric blocking recv-before-send on a ring "
            "(recv from rank-1, then send to rank+1) waits on its "
            "neighbor who is waiting on theirs.  Tag classes are "
            "matched tree-wide, so the two-phase I/O tags in "
            "mpiio/file.py pair across functions.",
        ),
        Rule(
            "REP104",
            "collective inside a loop with a rank-dependent trip count",
            "A collective issued once per iteration of `for x in "
            "mine(rank)` runs a different number of times on each "
            "rank: after the shortest rank exits, the others' next "
            "collective pairs with garbage.  Loop bounds around "
            "collectives must be rank-uniform; annotate bounds that "
            "are uniform by construction with a justified noqa and a "
            "runtime-validated trace (--instrument collectives).",
        ),
    )
}

__all__ = ["Rule", "RULES"]
