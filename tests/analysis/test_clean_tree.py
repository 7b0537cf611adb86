"""The shipped tree passes its own determinism linter and CLI."""

import io
import subprocess
import sys
import tokenize
from pathlib import Path

from repro.analysis.linter import (collect_suppressions, iter_suppressions,
                                   lint_paths)
from repro.analysis.rules import RULES

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def test_shipped_tree_has_zero_findings():
    findings = lint_paths([str(SRC)])
    assert findings == [], "\n".join(f.render() for f in findings)


def _strip_noqa(source):
    """*source* with every noqa comment cut from its line."""
    noqa_lines = {s.line for s in iter_suppressions(source)}
    lines = source.splitlines(keepends=True)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and tok.start[0] in noqa_lines:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col].rstrip() + "\n"
    return "".join(lines)


def test_every_suppression_silences_a_live_finding(tmp_path):
    """Lint a noqa-stripped copy of the tree: the findings are exactly
    the suppressed sites.  No suppression is stale, and no rule's output
    over the shipped tree can move without this test noticing."""
    suppressed = set()
    for s in collect_suppressions([str(SRC)]):
        assert s.rules is not None, f"bare noqa names no rule: {s.render()}"
        rel = Path(s.path).relative_to(SRC).as_posix()
        suppressed.update((rel, s.line, rule) for rule in s.rules)
    assert suppressed
    copy = tmp_path / "src"
    for f in SRC.rglob("*.py"):
        dst = copy / f.relative_to(SRC)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text(_strip_noqa(f.read_text(encoding="utf-8")),
                       encoding="utf-8")
    found = {(Path(f.path).relative_to(copy).as_posix(), f.line, f.rule)
             for f in lint_paths([str(copy)])}
    assert found == suppressed


def test_shipped_tree_suppressions_are_justified():
    # Every noqa in the shipped tree must say *why*, after its `--`.
    suppressions = collect_suppressions([str(SRC)])
    assert suppressions
    unjustified = [s.render() for s in suppressions if not s.justification]
    assert unjustified == []


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=REPO, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


def test_cli_lint_exits_zero_on_clean_tree():
    proc = _cli("lint", str(SRC))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "no findings"


def test_cli_lint_flags_and_reports_text(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    proc = _cli("lint", str(bad))
    assert proc.returncode == 1
    flagged = [line for line in proc.stdout.splitlines() if " REP" in line]
    assert len(flagged) == 1
    assert flagged[0].startswith(f"{bad}:2:5: REP001 ")
    assert "1 finding(s) in 1 file(s)" in proc.stdout


def test_cli_lint_rejects_a_path_with_no_sources(tmp_path):
    # A typo in the lint path must not silently switch the gate off.
    missing = tmp_path / "does_not_exist"
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not python\n")
    for path in (missing, tmp_path / "missing.py", empty):
        proc = _cli("lint", str(path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert str(path) in proc.stderr
        assert "no findings" not in proc.stdout


def test_cli_check_rejects_an_unknown_workload():
    proc = _cli("check", "--workload", "nope", "--budget", "1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "'nope'" in proc.stderr and "smallio" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_rules_lists_all_rules():
    proc = _cli("rules")
    assert proc.returncode == 0
    for rule_id in RULES:
        assert rule_id in proc.stdout


def test_cli_lint_rejects_a_select_that_names_no_rule(tmp_path):
    # An empty or retired rule list must not silently switch the gate
    # off: the file below has a live REP001.
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    for select in (",", " ", "", "REP101"):
        proc = _cli("lint", "--select", select, str(bad))
        assert proc.returncode == 2, (select, proc.stdout + proc.stderr)
        assert "no findings" not in proc.stdout
    proc = _cli("lint", "--select", " rep001 ,", str(bad))
    assert proc.returncode == 1
    assert "REP001" in proc.stdout
    proc = _cli("lint", "src/", "--select", "REP007")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "unknown rule(s)" in proc.stderr


def test_syntax_error_reported_once(tmp_path):
    # Each file is parsed once, so a file that does not parse yields
    # exactly one REP000, and the files that do parse are still linted.
    (tmp_path / "broken.py").write_text("def broken(:\n")
    (tmp_path / "clock.py").write_text("import time\nt = time.time()\n")
    findings = lint_paths([str(tmp_path)])
    assert [(Path(f.path).name, f.rule) for f in findings] == [
        ("broken.py", "REP000"), ("clock.py", "REP001")]
