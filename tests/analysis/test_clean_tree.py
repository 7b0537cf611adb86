"""The shipped tree passes its own determinism linter and CLI."""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.linter import lint_paths
from repro.analysis.rules import RULES

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def test_shipped_tree_has_zero_findings():
    findings = lint_paths([str(SRC)])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_lint_exits_zero_on_clean_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", str(SRC)],
        cwd=REPO, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_lint_flags_and_reports_json(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "--format", "json",
         str(bad)],
        cwd=REPO, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert [f["rule"] for f in payload] == ["REP001"]


def test_cli_rules_lists_all_rules():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "rules"],
        cwd=REPO, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    for rule_id in RULES:
        assert rule_id in proc.stdout


def test_syntax_error_reported_once(tmp_path):
    # Module-local and whole-tree passes share one parse per file, so a
    # file that does not parse yields exactly one REP000, and the
    # whole-tree pass still runs over the files that do parse.
    (tmp_path / "broken.py").write_text("def broken(:\n")
    (tmp_path / "leader.py").write_text(
        "def leader(comm):\n"
        "    if comm.rank == 0:\n"
        "        yield from comm.bcast('h', root=0)\n"
        "    yield from comm.barrier()\n")
    findings = lint_paths([str(tmp_path)])
    assert [(Path(f.path).name, f.rule) for f in findings] == [
        ("broken.py", "REP000"), ("leader.py", "REP101")]
