"""Schedule-exploring model checker: control fidelity + bug regression.

Three claims are load-bearing:

* attaching the controller with the **empty schedule** reproduces the
  uncontrolled run exactly (same final simulated time), so traces are
  honest replays and the default schedule is "what the code really does";
* the shipped tree explores its budget with **zero violations** on every
  workload;
* re-introducing the pre-PR-2 last-closer close (the exact generator the
  sanitizer regression suite keeps) makes the checker find a violation
  that the **default schedule misses** — the single-run sanitizer is
  blind to it — and delta-minimize it to a handful of decisions whose
  trace replays to the same failure.
"""

import pytest

from repro.analysis.explore import (
    _Controller,
    replay_trace,
    run_check,
    run_schedule,
    save_trace,
    load_trace,
)
from repro.analysis.minimize import minimize_schedule
from repro.analysis.scenarios import SCENARIOS, get_scenario
from repro.errors import StorageUnavailable
from repro.pfs.osd import Osd
from repro.plfs.writer import PlfsWriteHandle

from .test_regression_race import _racy_drop_metadata


# -- control fidelity --------------------------------------------------------

def test_empty_schedule_matches_uncontrolled_run():
    """Controller + choice-0 everywhere == no controller at all."""
    scenario = get_scenario("smallio")

    plain = scenario.build()
    scenario.drive(plain)
    plain.env.run()

    controlled = scenario.build()
    ctrl = controlled.env.subscribe(_Controller({}, controlled.env))
    scenario.drive(controlled)
    controlled.env.run()

    assert controlled.env.now == plain.env.now
    # The aligned scenarios exist to create real tie-breaks.
    assert any(len(eids) > 1 for eids in ctrl.decisions)


def test_out_of_range_choice_falls_back_to_default():
    scenario = get_scenario("smallio")
    wild = run_schedule(scenario, {0: 99})      # wider than any ready set
    base = run_schedule(scenario, {})
    assert not wild.failed
    assert wild.decisions == base.decisions


# -- shipped tree is clean ---------------------------------------------------

@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_shipped_tree_explores_clean(workload):
    report = run_check(workload, budget=40, bound=2)
    assert report.ok, report.render()
    assert report.runs >= 1
    assert report.exhausted, report.render()


def test_outage_workload_strikes_the_writers_appends(monkeypatch):
    """The outage lands while the writer moves data: appends hit a down
    OSD and are retried.  An outage that ended before the first append
    would leave the retry path unexplored."""
    struck = []
    check_up = Osd._check_up

    def spy(osd):
        try:
            check_up(osd)
        except StorageUnavailable:
            struck.append(osd.index)
            raise

    monkeypatch.setattr(Osd, "_check_up", spy)
    result = run_schedule(get_scenario("outage"), {})
    assert not result.failed
    assert struck


# -- the re-introduced last-closer bug ---------------------------------------

@pytest.fixture
def racy_close(monkeypatch):
    monkeypatch.setattr(PlfsWriteHandle, "_drop_metadata",
                        _racy_drop_metadata)


def test_default_schedule_misses_the_racy_close(racy_close):
    """The single-schedule sanitizer run is clean: the default order
    retires the closer's entry before the re-opener's increment, so only
    exploration can expose the bug."""
    result = run_schedule(get_scenario("smallio"), {})
    assert not result.failed, [v.render() for v in result.violations]


def test_checker_finds_and_minimizes_the_racy_close(racy_close):
    report = run_check("smallio", budget=40, bound=2)
    assert not report.ok
    assert report.runs <= 40
    kinds = {v.kind for v in report.violations}
    assert kinds & {"race", "crash"}, report.render()
    # Delta-minimized to a handful of deviations (the issue's bar: <= 5).
    assert 1 <= len(report.schedule) <= 5
    # The minimized schedule still fails on a fresh run.
    final = run_schedule(get_scenario("smallio"), report.schedule)
    assert final.failed


def test_violation_trace_replays(racy_close, tmp_path):
    report = run_check("smallio", budget=40, bound=2)
    assert report.trace is not None
    path = str(tmp_path / "trace.json")
    save_trace(path, report.trace)
    trace = load_trace(path)
    assert trace["workload"] == "smallio"
    assert trace["violation"]["kind"] == report.violation.kind
    result = replay_trace(trace)
    assert result.failed
    assert result.violations[0].kind == report.violation.kind


def test_replay_cli_reports_reproduction(racy_close, tmp_path, capsys):
    from repro.harness.__main__ import main as harness_main

    report = run_check("smallio", budget=40, bound=2)
    path = str(tmp_path / "trace.json")
    save_trace(path, report.trace)
    assert harness_main(["--replay-schedule", path]) == 0
    out = capsys.readouterr().out
    assert "violation reproduced" in out


# -- minimization ------------------------------------------------------------

def test_minimize_drops_irrelevant_decisions():
    fails_iff = {3: 1, 7: 2}

    def still_fails(schedule):
        return all(schedule.get(k) == v for k, v in fails_iff.items())

    start = {1: 1, 3: 1, 5: 1, 7: 2, 9: 1}
    assert minimize_schedule(start, still_fails) == fails_iff


def test_minimize_keeps_singleton():
    assert minimize_schedule({4: 1}, lambda s: s == {4: 1}) == {4: 1}
