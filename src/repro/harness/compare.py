"""Compare two harness result files (regression tracking for the models).

`python -m repro.harness ... --json results.json` snapshots every table.
:func:`compare_results` diffs two snapshots cell by cell and reports
relative drifts above a threshold — the tool you run after touching a
model to see which figures moved:

    python -m repro.harness fig5 --json new.json
    python -m repro.harness compare old.json new.json            # any drift
    python -m repro.harness compare old.json new.json --threshold 0.05

``compare`` prints the drifted cells and exits 1 if there are any, 0 if
the snapshots agree, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Any, Dict, List

__all__ = ["CellDiff", "compare_results", "compare_files", "render_diffs", "main"]


@dataclass(frozen=True)
class CellDiff:
    """One drifted cell between two result snapshots."""

    table: str
    row: int
    column: str
    old: Any
    new: Any
    rel_change: float  # (new - old) / |old|, inf for new-from-zero

    def __str__(self) -> str:
        pct = f"{self.rel_change * 100:+.1f}%" if self.rel_change != float("inf") else "new"
        return f"{self.table}[{self.row}].{self.column}: {self.old} -> {self.new} ({pct})"


def _numeric(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_results(old: Dict[str, Any], new: Dict[str, Any], *,
                    threshold: float = 0.05) -> List[CellDiff]:
    """Cell-level diffs between two ``tables_to_json`` snapshots.

    Numeric cells report relative drift beyond *threshold*; structural
    differences (missing tables/rows, changed non-numeric cells) always
    report.  Results are sorted by |relative change| descending.
    """
    diffs: List[CellDiff] = []
    for table_id in sorted(set(old) | set(new)):
        if table_id not in old or table_id not in new:
            diffs.append(CellDiff(table_id, -1, "<table>",
                                  "present" if table_id in old else "absent",
                                  "present" if table_id in new else "absent",
                                  float("inf")))
            continue
        t_old, t_new = old[table_id], new[table_id]
        cols = t_new.get("columns", [])
        rows_old, rows_new = t_old.get("rows", []), t_new.get("rows", [])
        if t_old.get("columns") != cols or len(rows_old) != len(rows_new):
            diffs.append(CellDiff(table_id, -1, "<shape>",
                                  f"{len(rows_old)}x{len(t_old.get('columns', []))}",
                                  f"{len(rows_new)}x{len(cols)}", float("inf")))
            continue
        for i, (r_old, r_new) in enumerate(zip(rows_old, rows_new)):
            for col, a, b in zip(cols, r_old, r_new):
                if _numeric(a) and _numeric(b):
                    if a == b:
                        continue
                    rel = (b - a) / abs(a) if a != 0 else float("inf")
                    magnitude = abs(rel) if rel != float("inf") else float("inf")
                    if magnitude >= threshold:
                        diffs.append(CellDiff(table_id, i, col, a, b, rel))
                elif a != b:
                    diffs.append(CellDiff(table_id, i, col, a, b, float("inf")))
    diffs.sort(key=lambda d: abs(d.rel_change) if d.rel_change != float("inf") else 1e18,
               reverse=True)
    return diffs


def compare_files(old_path: str, new_path: str, *, threshold: float = 0.05
                  ) -> List[CellDiff]:
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    return compare_results(old, new, threshold=threshold)


def render_diffs(diffs: List[CellDiff], limit: int = 50) -> str:
    if not diffs:
        return "no drifts above threshold"
    lines = [str(d) for d in diffs[:limit]]
    if len(diffs) > limit:
        lines.append(f"... and {len(diffs) - limit} more")
    return "\n".join(lines)


def main(argv=None) -> int:
    """``python -m repro.harness compare OLD NEW [--threshold T]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness compare",
        description="Diff two harness --json snapshots cell by cell; exit 1 "
                    "on any drifted cell.")
    parser.add_argument("old", help="baseline snapshot")
    parser.add_argument("new", help="snapshot under test")
    parser.add_argument("--threshold", type=float, default=0.0, metavar="T",
                        help="ignore numeric drifts below this relative "
                             "change (default 0: every change is a drift)")
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error(f"--threshold must be >= 0, got {args.threshold}")
    try:
        diffs = compare_files(args.old, args.new, threshold=args.threshold)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    print(render_diffs(diffs))
    if diffs:
        print(f"{len(diffs)} drifted cell(s) at threshold {args.threshold:g}")
    return 1 if diffs else 0
