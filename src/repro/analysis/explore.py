"""CHESS-style bounded schedule exploration for the simulator.

The engine is deterministic: with no tie-breaking observer it fires
events in (time, sequence-id) order, so one workload is one schedule.
This module enumerates the *other* schedules.  A :class:`_Controller`
subscribes to the engine's observer bus with a ``select`` hook (see
:class:`repro.sim.Engine`) and decides every same-instant tie-break; a
**schedule** is the sparse map ``{decision_index: choice}`` of the
tie-breaks where it deviated from the default choice 0.  The
empty schedule reproduces the uncontrolled run exactly, which is what
makes violating schedules replayable as JSON traces.

Exploration is bounded and pruned:

* **preemption bound** — at most ``bound`` deviations per schedule
  (CHESS's insight: real concurrency bugs need very few);
* **DPOR-style pruning** — a deviation at decision point *p* is only
  explored when the access footprints of the two reordered segments
  conflict (same tracked container and key, at least one write).  The
  footprints come for free: the sanitizer's ``tracked()`` proxies report
  every access to the controller via the observer hook, attributed to
  the event segment that performed it.  Footprints are *causally
  closed* within an instant: a segment inherits the footprints of every
  event it triggers that fires at the same simulated time, because
  reordering the segment reorders that whole same-instant cascade.
  (An ``AllOf`` completion is the canonical case — the serve event that
  satisfies it has an empty footprint itself, but firing it is what
  releases the process segment that mutates the registries.)

At every quiescent point (an instant fully drained) the controller
evaluates :func:`repro.analysis.oracles.quick_invariants`; when a
schedule's workload finishes, the final PLFS oracles (namespace
consistency, conservation, index-strategy equivalence) run against the
drained world.  Any violation stops the search, is delta-minimized
(:mod:`repro.analysis.minimize`), and is emitted as a trace that
``python -m repro.harness --replay-schedule trace.json`` reproduces.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..pfs.volume import Client
from ..plfs.aggregation import aggregate_original
from ..sim.engine import blocked_report
from .oracles import (
    check_conservation,
    check_index_equivalence,
    check_namespace,
    quick_invariants,
)
from .sanitize import sanitizer_of
from .scenarios import Scenario, get_scenario

__all__ = [
    "CheckReport",
    "Violation",
    "load_trace",
    "replay_trace",
    "run_check",
    "run_schedule",
    "save_trace",
]

TRACE_VERSION = 1

Schedule = Dict[int, int]
Footprint = FrozenSet[Tuple[str, str, bool]]
_EMPTY_FP: Footprint = frozenset()


@dataclass(frozen=True)
class Violation:
    """One invariant breach found under an explored schedule."""

    kind: str      # "crash" | "deadlock" | "race" | "invariant" | "oracle"
    message: str

    def render(self) -> str:
        return f"[{self.kind}] {self.message}"


class _Controller:
    """Engine observer + sanitizer observer for one controlled run.

    Doubles as both halves of the instrumentation: the engine asks it to
    break ties (``select``/``fired``/``quiescent``) and the tracked
    proxies report accesses to it (``on_access``), which it attributes
    to the event segment currently executing — the footprints DPOR
    pruning needs.
    """

    def __init__(self, schedule: Schedule, env: Any):
        self.schedule = dict(schedule)
        self.decisions: List[Tuple[int, ...]] = []  # ready eids per point
        self.choices: List[int] = []
        self.footprints: Dict[int, set] = {}
        self.fired_eids: set = set()
        # (eid, eid-allocation watermark at fire entry, fire time): the
        # watermark brackets which events each segment triggered, which
        # is what the causal footprint closure walks.
        self.fire_log: List[Tuple[int, int, float]] = []
        self.quick_cb: Any = None
        self._cur: Optional[int] = None
        self._env = env

    # -- engine observer hooks --------------------------------------------
    def select(self, ready: Sequence[Tuple[int, Any]]) -> int:
        idx = len(self.decisions)
        self.decisions.append(tuple(eid for eid, _ev in ready))
        choice = self.schedule.get(idx, 0)
        if not (0 <= choice < len(ready)):
            choice = 0
        self.choices.append(choice)
        return choice

    def fired(self, eid: int, event: Any) -> None:
        self.fired_eids.add(eid)
        self._cur = eid
        self.fire_log.append((eid, self._env._eid, self._env.now))

    def quiescent(self, now: float) -> None:
        self._cur = None
        if self.quick_cb is not None:
            self.quick_cb(now)

    # -- sanitizer observer hook ------------------------------------------
    def on_access(self, container: str, key: Any, is_write: bool) -> None:
        cur = self._cur
        if cur is None:
            return
        fp = self.footprints.get(cur)
        if fp is None:
            fp = self.footprints[cur] = set()
        fp.add((container, repr(key), is_write))


@dataclass
class RunResult:
    """Everything one controlled run leaves behind."""

    schedule: Schedule
    decisions: List[Tuple[int, ...]]
    workload_decisions: int          # decision points before the oracle phase
    footprints: Dict[int, Footprint]
    causal_footprints: Dict[int, Footprint]
    fired_eids: set
    violations: List[Violation]

    @property
    def failed(self) -> bool:
        return bool(self.violations)


def run_schedule(scenario: Scenario, schedule: Schedule, *,
                 final_oracles: bool = True) -> RunResult:
    """Execute *scenario* once under *schedule* and collect violations.

    The world is built with the sanitizer enabled (its proxies are the
    footprint source) but in collecting mode — a conflict is a reported
    violation, not an exception, so the run drains and the oracles still
    see the damage the race did.
    """
    world = scenario.build(instrument="sanitize")
    env = world.env
    san = sanitizer_of(env)
    san.strict = False
    # Collective-trace recording in oracle mode: non-strict, so a
    # divergent schedule drains fully and the mismatch is reported as a
    # violation below rather than aborting the exploration.
    from ..mpi.trace import attach_tracer

    tracer = attach_tracer(env, strict=False)

    controller = _Controller(schedule, env)
    quick_msgs: List[str] = []
    seen_quick: set = set()

    def on_quiescent(_now: float) -> None:
        for msg in quick_invariants(world):
            if msg not in seen_quick:
                seen_quick.add(msg)
                quick_msgs.append(msg)

    controller.quick_cb = on_quiescent
    san.observer = controller
    env.subscribe(controller)

    procs = scenario.drive(world)
    crash: Optional[BaseException] = None
    try:
        env.run()
    except Exception as exc:  # a schedule that crashes the model is a finding
        crash = exc

    workload_decisions = len(controller.decisions)
    workload_conflicts = list(san.conflicts)
    san.observer = None
    controller.quick_cb = None
    env.unsubscribe(controller)

    violations: List[Violation] = []
    if crash is not None:
        violations.append(Violation(
            "crash", f"{type(crash).__name__}: {crash}"))
    else:
        stuck = [p for p in procs if not p.triggered]
        if stuck:
            violations.append(Violation(
                "deadlock",
                f"{len(stuck)} process(es) never finished:\n"
                + blocked_report(stuck)))
    for conflict in workload_conflicts:
        violations.append(Violation("race", conflict.render()))
    for msg in quick_msgs:
        violations.append(Violation("invariant", msg))
    # Quiescent-drain collective-congruence oracle: every communicator
    # the workload touched must show identical per-rank traces.  This is
    # the runtime confirmation channel for static REP101..REP104
    # findings (repro.analysis.collectives).
    from ..mpi.trace import validate_tracer

    for msg in validate_tracer(tracer):
        violations.append(Violation("oracle", f"collective-trace: {msg}"))

    if final_oracles and not violations:
        try:
            violations.extend(_final_oracles(world, scenario))
        except Exception as exc:
            violations.append(Violation(
                "oracle",
                f"final oracle run failed: {type(exc).__name__}: {exc}"))

    footprints = {eid: frozenset(fp)
                  for eid, fp in sorted(controller.footprints.items())}
    return RunResult(
        schedule=dict(schedule),
        decisions=controller.decisions,
        workload_decisions=workload_decisions,
        footprints=footprints,
        causal_footprints=_causal_footprints(controller.fire_log, footprints),
        fired_eids=controller.fired_eids,
        violations=violations,
    )


def _final_oracles(world: Any, scenario: Scenario) -> List[Violation]:
    """PLFS semantic invariants over the drained world."""
    out: List[Violation] = []
    for msg in quick_invariants(world):
        out.append(Violation("invariant", msg))
    for path in sorted(scenario.ledgers):
        for msg in check_namespace(world, path):
            out.append(Violation("oracle", f"{path}: {msg}"))
        layout = world.mount.layout(path)
        client = Client(node=world.cluster.nodes[0], client_id=9500)
        gi = world.env.run_process(
            aggregate_original(layout, client, {}), "oracle-merge")
        for msg in check_conservation(world, path, gi):
            out.append(Violation("oracle", f"{path}: {msg}"))
        for msg in check_index_equivalence(
                world, path, scenario.sizes[path], scenario.ledgers[path],
                ranks=scenario.equiv_ranks):
            out.append(Violation("oracle", f"{path}: {msg}"))
    return out


# -- DPOR candidate generation ---------------------------------------------

def _causal_footprints(fire_log: List[Tuple[int, int, float]],
                       footprints: Dict[int, Footprint],
                       ) -> Dict[int, Footprint]:
    """Close each segment's footprint over its same-instant cascade.

    Choosing an event at a tie-break doesn't just run that segment — it
    runs everything the segment transitively triggers at the same
    instant (callbacks allocate new immediate events, which fire before
    time advances).  Deferring the event defers that whole cascade, so
    conflict detection must compare cascades, not lone segments.

    The fire log records, per fired event, the engine's eid-allocation
    watermark on entry; events allocated between one segment's entry and
    the next segment's entry were triggered *by* that segment.  Walking
    the log backwards unions each segment's own footprint with the
    (already-closed) footprints of the same-instant events it triggered.
    """
    causal: Dict[int, Footprint] = {}
    n = len(fire_log)
    for i in range(n - 1, -1, -1):
        eid, watermark, t = fire_log[i]
        hi = fire_log[i + 1][1] if i + 1 < n else None
        fp = set(footprints.get(eid, _EMPTY_FP))
        for j in range(i + 1, n):
            child_eid, _wm, child_t = fire_log[j]
            if child_t != t:
                break    # fire times only move forward: cascade over
            if child_eid > watermark and (hi is None or child_eid <= hi):
                fp |= causal.get(child_eid, _EMPTY_FP)
        causal[eid] = frozenset(fp)
    return causal


def _conflicting(a: Footprint, b: Footprint) -> bool:
    """Do two segment footprints touch the same state, one writing?"""
    for container, key, is_write in a:
        if is_write:
            if (container, key, False) in b or (container, key, True) in b:
                return True
        elif (container, key, True) in b:
            return True
    return False


def _children(result: RunResult, bound: int) -> List[Schedule]:
    """Schedules one deviation deeper than *result*'s, DPOR-pruned.

    Deviations are only added after the parent schedule's last deviation
    (the search tree is ordered, so earlier points were covered by the
    parent's siblings), only at workload decision points (reordering the
    oracle phase's own reads proves nothing), and only when the deferred
    default *cascade* conflicts with the promoted one (causally-closed
    footprints; see :func:`_causal_footprints`) — or the promoted event
    never fired in the parent run, which is treated conservatively.
    """
    schedule = result.schedule
    if len(schedule) >= bound:
        return []
    out: List[Schedule] = []
    last_dev = max(schedule, default=-1)
    for p in range(last_dev + 1, result.workload_decisions):
        eids = result.decisions[p]
        default_fp = result.causal_footprints.get(eids[0], _EMPTY_FP)
        for k in range(1, len(eids)):
            alt = eids[k]
            alt_fp = result.causal_footprints.get(alt)
            if alt in result.fired_eids and (
                    alt_fp is None
                    or not _conflicting(default_fp, alt_fp)):
                continue
            child = dict(schedule)
            child[p] = k
            out.append(child)
    return out


# -- traces ----------------------------------------------------------------

def trace_dict(workload: str, schedule: Schedule,
               violation: Optional[Violation]) -> Dict[str, Any]:
    return {
        "version": TRACE_VERSION,
        "workload": workload,
        "decisions": [[idx, schedule[idx]] for idx in sorted(schedule)],
        "violation": (
            {"kind": violation.kind, "message": violation.message}
            if violation is not None else None),
    }


def save_trace(path: str, trace: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trace(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        trace = json.load(fh)
    if trace.get("version") != TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {trace.get('version')!r} in {path}")
    return trace


def replay_trace(trace: Dict[str, Any]) -> RunResult:
    """Re-run a trace's workload under its recorded schedule."""
    scenario = get_scenario(trace["workload"])
    schedule = {int(idx): int(choice) for idx, choice in trace["decisions"]}
    return run_schedule(scenario, schedule)


# -- the search ------------------------------------------------------------

@dataclass
class CheckReport:
    """Outcome of one bounded exploration."""

    workload: str
    budget: int
    bound: int
    runs: int = 0
    minimize_runs: int = 0
    schedules_queued: int = 0
    violation: Optional[Violation] = None
    violations: List[Violation] = field(default_factory=list)
    schedule: Optional[Schedule] = None           # minimized, when violating
    trace: Optional[Dict[str, Any]] = None
    exhausted: bool = False   # queue drained before budget ran out

    @property
    def ok(self) -> bool:
        return self.violation is None

    def render(self) -> str:
        head = (f"check --workload {self.workload}: {self.runs} schedule(s) "
                f"explored (bound {self.bound}, budget {self.budget}"
                + (", search exhausted" if self.exhausted else "") + ")")
        if self.ok:
            return head + "\n  no violations; all oracles passed"
        lines = [head,
                 f"  VIOLATION after {self.runs} run(s): "
                 f"{self.violation.render()}"]
        for extra in self.violations[1:]:
            lines.append(f"    also: {extra.render()}")
        lines.append(
            f"  minimized schedule: {len(self.schedule)} decision(s) "
            f"{sorted(self.schedule.items())} "
            f"({self.minimize_runs} minimization run(s))")
        return "\n".join(lines)


def run_check(workload: str, *, budget: int = 200, bound: int = 2,
              log: Any = None) -> CheckReport:
    """Bounded DPOR exploration of *workload*; stops at the first violation.

    Breadth-first over deviation count: the default schedule runs first,
    then every pruned one-deviation child, and so on up to *bound*.
    *budget* caps the number of executed schedules (minimization runs
    are counted separately).  The first violating schedule is
    delta-minimized and packaged as a replayable trace.
    """
    scenario = get_scenario(workload)
    report = CheckReport(workload=workload, budget=budget, bound=bound)
    queue: deque = deque([{}])
    visited = {frozenset()}
    while queue and report.runs < budget:
        schedule = queue.popleft()
        result = run_schedule(scenario, schedule)
        report.runs += 1
        if log is not None and report.runs % 25 == 0:
            log(f"  explored {report.runs} schedule(s), "
                f"{len(queue)} queued")
        if result.failed:
            _minimize_into(report, scenario, schedule, result)
            return report
        for child in _children(result, bound):
            key = frozenset(child.items())
            if key not in visited:
                visited.add(key)
                queue.append(child)
                report.schedules_queued += 1
    report.exhausted = not queue
    return report


def _minimize_into(report: CheckReport, scenario: Scenario,
                   schedule: Schedule, result: RunResult) -> None:
    """Delta-minimize the violating schedule and fill the report."""
    from .minimize import minimize_schedule

    def still_fails(trial: Schedule) -> bool:
        report.minimize_runs += 1
        return run_schedule(scenario, trial).failed

    minimized = minimize_schedule(schedule, still_fails)
    final = result if minimized == schedule else run_schedule(
        scenario, minimized)
    report.violations = final.violations
    report.violation = final.violations[0]
    report.schedule = minimized
    report.trace = trace_dict(report.workload, minimized, report.violation)
