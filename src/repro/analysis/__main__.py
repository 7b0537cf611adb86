"""Analysis CLI: determinism linter, collective analyzer, model checker.

Usage::

    python -m repro.analysis lint src/              # lint a tree
    python -m repro.analysis lint src/ --json       # machine-readable
    python -m repro.analysis lint src/ --format sarif -o out.sarif
    python -m repro.analysis lint src/ --show-suppressed   # noqa audit
    python -m repro.analysis lint a.py --select REP004,REP006
    python -m repro.analysis collectives src/       # REP101..REP104
    python -m repro.analysis rules                  # rule table
    python -m repro.analysis check --workload smallio --budget 200

Exit status: 0 when no findings/violations, 1 when any, 2 on usage
error.  ``--format sarif`` emits a SARIF 2.1.0 document shared by every
rule (REP001..REP104) so CI annotates PRs inline from one artifact.
The sanitizer has no subcommand here — it is a *runtime* check, enabled
per experiment run with ``python -m repro.harness <figure> --instrument
sanitize`` (and implicitly by ``check``); the collective-trace validator
likewise runs with ``--instrument collectives``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .config import AnalysisConfig, load_config
from .linter import Finding, collect_suppressions, lint_paths
from .rules import RULES


def _load_cli_config(args: argparse.Namespace) -> Optional[AnalysisConfig]:
    """Config per the shared --config/--no-config/--select flags; None
    on a usage error (already reported)."""
    config: AnalysisConfig
    if args.no_config:
        config = AnalysisConfig()
    else:
        pyproject = Path(args.config) if args.config else None
        config = load_config(pyproject)
    if args.select:
        wanted = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        unknown = wanted - set(RULES)
        if unknown:
            print(f"unknown rule(s): {sorted(unknown)}", file=sys.stderr)
            return None
        config = AnalysisConfig(
            disable=frozenset(set(RULES) - wanted) | config.disable,
            exclude=config.exclude,
            per_file_rules=config.per_file_rules)
    return config


def _show_suppressed(paths: List[str], config: AnalysisConfig) -> int:
    suppressions = collect_suppressions(paths, config)
    for s in suppressions:
        print(s.render())
    n = len(suppressions)
    unjustified = sum(1 for s in suppressions if not s.justification)
    print(f"\n{n} suppression(s), {unjustified} without a justification"
          if n else "no suppressions")
    return 0


def _report(findings: List[Finding], args: argparse.Namespace) -> int:
    fmt = getattr(args, "format", "text")
    if args.json:
        fmt = "json"
    if fmt == "sarif":
        from .sarif import render_sarif, to_sarif, validate_sarif
        errors = validate_sarif(to_sarif(findings))
        if errors:  # never expected; a reporter bug must fail loudly
            for e in errors:
                print(f"sarif internal error: {e}", file=sys.stderr)
            return 2
        text = render_sarif(findings)
    elif fmt == "json":
        text = json.dumps([f.__dict__ for f in findings], indent=2)
    else:
        lines = [f.render() for f in findings]
        n = len(findings)
        files = len({f.path for f in findings})
        lines.append(f"\n{n} finding(s) in {files} file(s)" if n
                     else "no findings")
        text = "\n".join(lines)
    if getattr(args, "output", None):
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 1 if findings else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    if config is None:
        return 2
    if args.show_suppressed:
        return _show_suppressed(args.paths, config)
    findings = lint_paths(args.paths, config)
    return _report(findings, args)


def _cmd_collectives(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    if config is None:
        return 2
    if args.show_suppressed:
        return _show_suppressed(args.paths, config)
    from .collectives import analyze_paths

    findings = analyze_paths(args.paths, config)
    return _report(findings, args)


def _cmd_rules(_args: argparse.Namespace) -> int:
    for rule in RULES.values():  # repro: noqa[REP004] -- registry is a
        # literal table; printed in definition order by design.
        print(f"{rule.id}  {rule.summary}")
        print(f"        {rule.rationale}\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # Lazy imports: the explorer pulls in the whole simulator stack,
    # which `lint` runs (CI's most frequent path) should not pay for.
    from .explore import run_check, save_trace

    if args.budget < 1 or args.bound < 0:
        print("check needs --budget >= 1 and --bound >= 0", file=sys.stderr)
        return 2
    print(f"exploring workload {args.workload!r} "
          f"(bound {args.bound}, budget {args.budget})")
    report = run_check(args.workload, budget=args.budget, bound=args.bound,
                       log=print)
    print(report.render())
    if report.trace is not None:
        save_trace(args.trace, report.trace)
        print(f"  trace written to {args.trace} — replay with:\n"
              f"    python -m repro.harness --replay-schedule {args.trace}")
    return 0 if report.ok else 1


def _add_common_lint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("paths", nargs="+", help="files or directories")
    p.add_argument("--select", default="",
                   help="comma-separated rule IDs to run (default: all)")
    p.add_argument("--config", default="",
                   help="explicit pyproject.toml (default: nearest)")
    p.add_argument("--no-config", action="store_true",
                   help="ignore [tool.repro.analysis] settings")
    p.add_argument("--json", action="store_true",
                   help="emit findings as JSON (same as --format json)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default text)")
    p.add_argument("-o", "--output", default="",
                   help="write the report to a file instead of stdout")
    p.add_argument("--show-suppressed", action="store_true",
                   help="audit: list every noqa suppression with its "
                        "justification instead of linting")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism analysis for the repro source tree.")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the determinism linter")
    _add_common_lint_args(lint)
    lint.set_defaults(fn=_cmd_lint)

    coll = sub.add_parser(
        "collectives",
        help="interprocedural collective-matching analysis "
             "(REP101..REP104)")
    _add_common_lint_args(coll)
    coll.set_defaults(fn=_cmd_collectives)

    rules = sub.add_parser("rules", help="print the rule table")
    rules.set_defaults(fn=_cmd_rules)

    check = sub.add_parser(
        "check", help="bounded schedule exploration with invariant oracles")
    check.add_argument("--workload", default="smallio",
                       help="checker workload (see repro.analysis.scenarios)")
    check.add_argument("--budget", type=int, default=200,
                       help="max schedules to explore (default 200)")
    check.add_argument("--bound", type=int, default=2,
                       help="preemption bound: max deviations per schedule "
                            "(default 2)")
    check.add_argument("--trace", default="trace.json",
                       help="where to write the minimized violation trace")
    check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
