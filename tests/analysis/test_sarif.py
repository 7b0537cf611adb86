"""SARIF 2.1.0 emission: document shape, ruleIndex consistency, and a
golden document for the CI artifact; plus the noqa audit CLI."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.linter import Finding, lint_paths
from repro.analysis.rules import RULES
from repro.analysis.sarif import (SARIF_SCHEMA, SARIF_VERSION, render_sarif,
                                  to_sarif)

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
GOLDEN = Path(__file__).with_name("golden.sarif")

FINDINGS = [
    Finding(rule="REP101", path="pkg/mod.py", line=4, col=0,
            message="collective under a rank-dependent branch"),
    Finding(rule="REP001", path="pkg/other.py", line=2, col=4,
            message="wall clock in simulation code"),
]


def test_document_has_required_members():
    doc = to_sarif(FINDINGS)
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"] == SARIF_SCHEMA
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analysis"
    assert len(run["results"]) == 2


def test_rule_catalogue_covers_every_rule():
    doc = to_sarif([])
    listed = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert set(listed) >= set(RULES)
    assert "REP101" in listed and "REP104" in listed


def test_rule_index_is_consistent():
    doc = to_sarif(FINDINGS)
    run = doc["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_locations_are_one_based():
    doc = to_sarif(FINDINGS)
    regions = [r["locations"][0]["physicalLocation"]["region"]
               for r in doc["runs"][0]["results"]]
    assert regions[0]["startLine"] == 4 and regions[0]["startColumn"] == 1
    assert regions[1]["startLine"] == 2 and regions[1]["startColumn"] == 5


def test_sarif_matches_golden_document():
    # The reviewed 2.1.0 document for FINDINGS; an intended change to the
    # emitter or the rule table regenerates it with render_sarif(FINDINGS).
    assert render_sarif(FINDINGS) + "\n" == GOLDEN.read_text()


def _cli(*argv, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


LEADER_BCAST = textwrap.dedent('''
    def leader(comm):
        if comm.rank == 0:
            yield from comm.bcast("h", root=0)
        vals = yield from comm.gather(comm.rank, root=0)
        return vals
''')


def test_cli_sarif_output_validates(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(LEADER_BCAST)
    out = tmp_path / "out.sarif"
    proc = _cli("lint", "--select", "REP101,REP102,REP103,REP104",
                "--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1  # findings present
    doc = json.loads(out.read_text())
    assert doc == to_sarif(lint_paths([str(bad)]))
    assert [r["ruleId"] for r in doc["runs"][0]["results"]] == ["REP101"]


def test_cli_sarif_shared_across_rule_families(tmp_path):
    # One artifact covers both the determinism rules (REP0xx) and the
    # collective rules (REP1xx): same tool name, same rule catalogue,
    # and results from both families out of one lint run.
    clock = tmp_path / "clock.py"
    clock.write_text("import time\nt = time.time()\n")
    proc = _cli("lint", "--format", "sarif", str(clock))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert "REP001" in ids and "REP101" in ids

    both = tmp_path / "both.py"
    both.write_text("import time\nt = time.time()\n" + LEADER_BCAST)
    proc = _cli("lint", "--format", "sarif", str(both))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    results = [r["ruleId"] for r in doc["runs"][0]["results"]]
    assert results == ["REP001", "REP101"]


def test_cli_show_suppressed_audits_justifications(tmp_path):
    mod = tmp_path / "supp.py"
    mod.write_text(textwrap.dedent('''
        import time
        a = time.time()  # noqa: REP001 -- fixture clock, not sim state
        b = time.time()  # noqa: REP001
    '''))
    proc = _cli("lint", "--show-suppressed", str(mod))
    assert proc.returncode == 0
    assert "fixture clock, not sim state" in proc.stdout
    assert "2 suppression(s), 1 without a justification" in proc.stdout


def test_shipped_tree_suppressions_are_justified():
    # Every noqa in the shipped tree must say *why*.
    proc = _cli("lint", "--show-suppressed", str(SRC))
    assert proc.returncode == 0
    assert ", 0 without a justification" in proc.stdout
