"""Static and dynamic determinism analysis for the repro stack.

The reproduction's headline guarantee is that every figure table is
bit-identical across runs, seeds, ``--jobs`` counts, and fault plans.
This package turns that contract from a hand-audited convention into an
enforced invariant, with two engines:

* a **determinism linter** (:mod:`repro.analysis.linter`) — an AST pass
  over the source tree that flags the constructs that historically break
  simulated determinism: wall-clock reads, unseeded global RNGs, salted
  ``hash()``, unordered-container iteration feeding results or event
  schedules, mutable default arguments, and order-sensitive float
  reductions.  Rules are identified as ``REP001``..``REP006``
  (:mod:`repro.analysis.rules`), suppressible per line with
  ``# repro: noqa[REPnnn]`` and per file via ``[tool.repro.analysis]``
  in ``pyproject.toml``.

* a **yield-point race sanitizer** (:mod:`repro.analysis.sanitize`) — a
  dynamic checker for the hazard class behind the PR 2 last-closer bug:
  shared mutable state read before a generator ``yield`` and acted on
  after it, while another simulated process mutated it in between.
  Worlds built with ``--instrument sanitize`` on the harness CLI (or
  ``REPRO_INSTRUMENT=sanitize``) wrap every simulated process with a
  per-process yield-epoch counter and every registered shared container in a
  :func:`~repro.analysis.sanitize.tracked` proxy; stale-read and
  lost-update conflicts raise :class:`~repro.errors.RaceConditionError`
  at the exact write that acted on stale data.

* a **schedule-exploring model checker** (:mod:`repro.analysis.explore`)
  — a CHESS-style bounded enumerator of same-instant interleavings.  An
  observer on the engine's bus breaks its same-instant ties, reorders ready
  events under a preemption bound, prunes DPOR-style using the access
  footprints the ``tracked()`` proxies record, and evaluates semantic
  invariant oracles (:mod:`repro.analysis.oracles`) at every quiescent
  point.  Violating schedules are delta-minimized
  (:mod:`repro.analysis.minimize`) into replayable traces.

Command line::

    python -m repro.analysis lint src/      # determinism linter
    python -m repro.analysis rules          # rule table
    python -m repro.analysis check --workload smallio --budget 200
    python -m repro.harness faults --instrument sanitize,collectives
                                            # runtime-checked experiment run
    python -m repro.harness --replay-schedule trace.json  # replay a violation
"""

from __future__ import annotations

from .linter import Finding, lint_paths, lint_source
from .rules import RULES, Rule
from .sanitize import (
    Conflict,
    Sanitizer,
    TrackedDict,
    TrackedSet,
    raw_snapshot,
    sanitizer_of,
    tracked,
)

__all__ = [
    "Conflict",
    "Finding",
    "RULES",
    "Rule",
    "Sanitizer",
    "TrackedDict",
    "TrackedSet",
    "lint_paths",
    "lint_source",
    "raw_snapshot",
    "sanitizer_of",
    "tracked",
]
