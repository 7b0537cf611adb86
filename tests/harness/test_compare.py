"""Tests for the result-snapshot comparison utility."""

import json

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.compare import compare_files, compare_results, render_diffs


def snap(rows, columns=("x", "y"), table="t1"):
    return {table: {"title": "t", "columns": list(columns), "rows": rows,
                    "notes": ""}}


class TestCompare:
    def test_identical_snapshots_have_no_diffs(self):
        a = snap([[1, 2.0], [3, 4.0]])
        assert compare_results(a, a) == []

    def test_drift_above_threshold_reported(self):
        old = snap([[1, 100.0]])
        new = snap([[1, 111.0]])
        diffs = compare_results(old, new, threshold=0.05)
        assert len(diffs) == 1
        d = diffs[0]
        assert d.column == "y" and d.rel_change == pytest.approx(0.11)
        assert "+11.0%" in str(d)

    def test_drift_below_threshold_suppressed(self):
        old = snap([[1, 100.0]])
        new = snap([[1, 102.0]])
        assert compare_results(old, new, threshold=0.05) == []

    def test_missing_table_reported(self):
        old = snap([[1, 2.0]])
        diffs = compare_results(old, {}, threshold=0.05)
        assert diffs[0].column == "<table>"

    def test_shape_change_reported(self):
        old = snap([[1, 2.0]])
        new = snap([[1, 2.0], [3, 4.0]])
        diffs = compare_results(old, new)
        assert diffs[0].column == "<shape>"

    def test_non_numeric_change_always_reported(self):
        old = snap([["a", 1.0]])
        new = snap([["b", 1.0]])
        diffs = compare_results(old, new)
        assert diffs[0].old == "a" and diffs[0].new == "b"

    def test_sorted_by_magnitude(self):
        old = snap([[100.0, 100.0]])
        new = snap([[110.0, 200.0]])
        diffs = compare_results(old, new)
        assert diffs[0].column == "y"  # +100% before +10%

    def test_zero_to_nonzero_is_infinite(self):
        diffs = compare_results(snap([[0.0, 1.0]]), snap([[5.0, 1.0]]))
        assert diffs[0].rel_change == float("inf")

    def test_file_roundtrip(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(snap([[1, 10.0]])))
        b.write_text(json.dumps(snap([[1, 20.0]])))
        diffs = compare_files(str(a), str(b))
        assert len(diffs) == 1

    def test_render(self):
        diffs = compare_results(snap([[1, 10.0]]), snap([[1, 20.0]]))
        out = render_diffs(diffs)
        assert "t1[0].y" in out
        assert render_diffs([]) == "no drifts above threshold"


class TestCompareCli:
    def files(self, tmp_path, old_rows, new_rows):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(snap(old_rows)))
        b.write_text(json.dumps(snap(new_rows)))
        return str(a), str(b)

    def test_identical_exits_zero(self, tmp_path, capsys):
        a, b = self.files(tmp_path, [[1, 10.0]], [[1, 10.0]])
        assert harness_main(["compare", a, b]) == 0
        assert "no drifts" in capsys.readouterr().out

    def test_any_drift_exits_one_at_default_threshold(self, tmp_path, capsys):
        a, b = self.files(tmp_path, [[1, 10.0]], [[1, 10.001]])
        assert harness_main(["compare", a, b]) == 1
        out = capsys.readouterr().out
        assert "t1[0].y" in out and "1 drifted cell(s)" in out

    def test_threshold_forgives_small_drift(self, tmp_path):
        a, b = self.files(tmp_path, [[1, 10.0]], [[1, 10.001]])
        assert harness_main(["compare", a, b, "--threshold", "0.05"]) == 0

    def test_usage_errors_exit_two(self, tmp_path):
        a, _ = self.files(tmp_path, [[1, 10.0]], [[1, 10.0]])
        with pytest.raises(SystemExit) as exc:
            harness_main(["compare", a, str(tmp_path / "missing.json")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            harness_main(["compare", a, a, "--threshold", "-1"])
        assert exc.value.code == 2
