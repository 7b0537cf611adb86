"""Analysis CLI: determinism linter, model checker.

Usage::

    python -m repro.analysis lint src/              # every rule
    python -m repro.analysis lint a.py --select REP004,REP006
    python -m repro.analysis rules                  # rule table
    python -m repro.analysis check --workload smallio --budget 200

Exit status: 0 when no findings/violations, 1 when any, 2 on usage
error (an unknown rule or workload, a ``--select`` that names no rule,
or a lint path that does not exist or holds no ``*.py`` file).  ``lint``
runs the rules (REP001..REP006) file by file and prints one text report.
The sanitizer has no subcommand here — it is a *runtime* check, enabled
per experiment run with ``python -m repro.harness <figure> --instrument
sanitize`` (and implicitly by ``check``); collective congruence is
likewise checked at run time, with ``--instrument collectives``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .linter import discover, lint_paths
from .rules import RULES


def _cmd_lint(args: argparse.Namespace) -> int:
    enabled = None
    if args.select is not None:
        enabled = {r.strip().upper() for r in args.select.split(",")
                   if r.strip()}
        unknown = enabled - set(RULES)
        if unknown:
            print(f"unknown rule(s): {sorted(unknown)}", file=sys.stderr)
            return 2
        if not enabled:
            # A typo'd select must not silently switch the gate off.
            print(f"lint: --select {args.select!r} names no rule",
                  file=sys.stderr)
            return 2
    for path in args.paths:
        if not discover([path]):
            print(f"lint: {path!r} does not exist or holds no *.py file",
                  file=sys.stderr)
            return 2
    findings = lint_paths(args.paths, enabled)
    for f in findings:
        print(f.render())
    n = len(findings)
    files = len({f.path for f in findings})
    print(f"\n{n} finding(s) in {files} file(s)" if n else "no findings")
    return 1 if findings else 0


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
    from .scenarios import SCENARIOS

    if args.workload not in SCENARIOS:
        print(f"check: unknown workload {args.workload!r}; choices: "
              f"{', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism analysis for the repro source tree.")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser(
        "lint", help="run every rule (REP001..REP006) over a source tree")
    lint.add_argument("paths", nargs="+", help="files or directories")
    lint.add_argument("--select",
                      help="comma-separated rule IDs to run (default: all)")
    lint.set_defaults(fn=_cmd_lint)

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
