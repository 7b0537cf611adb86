"""Harness CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness all                 # every figure, small scale
    python -m repro.harness fig4 fig8           # selected figures
    python -m repro.harness all --scale paper   # published process counts
    python -m repro.harness all --json out.json # also dump JSON
    python -m repro.harness fig4 --jobs 4       # 4 worker processes
    python -m repro.harness faults --instrument sanitize,collectives
                                                # under the runtime checkers
    python -m repro.harness --replay-schedule trace.json
                                                # re-run a model-checker trace
    python -m repro.harness compare old.json new.json [--threshold T]
                                                # diff two --json snapshots

``REPRO_SCALE=paper`` is equivalent to ``--scale paper``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..errors import ConfigError
from .figures import FIGURES
from .report import render_tables, save_json
from .scales import get_scale
from .setup import INSTRUMENT_ENV, INSTRUMENTS, parse_instruments


def _replay(trace_path: str) -> int:
    """Re-run a model-checker trace; exit 0 iff its violation reproduces.

    Deterministic simulation makes this exact: the same workload under
    the same schedule produces the same violation.  A trace that no
    longer fails means the tree under test fixed (or lost) the bug the
    trace captured — useful both ways, so the outcome is always printed.
    """
    from ..analysis.explore import load_trace, replay_trace

    trace = load_trace(trace_path)
    recorded = trace.get("violation")
    print(f"# repro harness | replaying {trace_path} "
          f"(workload {trace['workload']!r}, "
          f"{len(trace['decisions'])} decision(s))\n", flush=True)
    result = replay_trace(trace)
    for v in result.violations:
        print(f"  {v.render()}")
    if result.failed:
        print("\nviolation reproduced")
        return 0
    if recorded is None:
        print("clean run reproduced")
        return 0
    print(f"\nrecorded violation did NOT reproduce: "
          f"[{recorded['kind']}] {recorded['message']}")
    return 1


def _instruments(spec: str):
    """argparse type of ``--instrument``: a usage error lists the names."""
    try:
        return parse_instruments(spec)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        from .compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the tables/figures of 'The Power and "
                    "Challenges of Transformative I/O' (CLUSTER 2012).",
    )
    parser.add_argument("figures", nargs="*",
                        help=f"figures to run: {', '.join(FIGURES)} or 'all'")
    parser.add_argument("--replay-schedule", default="", metavar="TRACE",
                        help="replay a violation trace written by 'python -m "
                             "repro.analysis check' and report whether the "
                             "recorded violation reproduces (exit 0 when it "
                             "does)")
    parser.add_argument("--scale", default="",
                        help="'small' (default) or 'paper' (published maxima)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent figure points "
                             "(default 1 = serial; 0 = all cores); tables are "
                             "identical at any job count")
    parser.add_argument("--json", default="",
                        help="also write results to this JSON file")
    parser.add_argument("--chart", action="store_true",
                        help="render each table as an ASCII chart too")
    parser.add_argument("--logy", action="store_true",
                        help="log-scale the chart y axis (implies --chart)")
    parser.add_argument("--instrument", default=[], metavar="NAMES",
                        type=_instruments,
                        help="comma-separated runtime checkers from "
                             f"{{{','.join(INSTRUMENTS)}}}: 'sanitize' "
                             "raises RaceConditionError on a shared-state "
                             "race (repro.analysis); 'collectives' asserts "
                             "per-communicator collective congruence, and "
                             "that no sent message goes unreceived, at job "
                             "drain (CollectiveMismatchError)")
    args = parser.parse_args(argv)
    if args.replay_schedule:
        if args.figures:
            parser.error("--replay-schedule takes no figure arguments")
        return _replay(args.replay_schedule)
    if not args.figures:
        parser.error("name figures to run, or use --replay-schedule")
    if args.instrument:
        # Via the environment so --jobs worker processes inherit it; each
        # build_world() subscribes the named observers.
        os.environ[INSTRUMENT_ENV] = ",".join(args.instrument)
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")

    names = list(FIGURES) if "all" in args.figures else args.figures
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s) {unknown}; choose from {sorted(FIGURES)}")
    scale = get_scale(args.scale)
    inst = f" | instrument={','.join(args.instrument)}" if args.instrument else ""
    print(f"# repro harness | scale={scale.name}{inst}\n", flush=True)
    all_tables = []
    for name in names:
        t0 = time.time()  # repro: noqa[REP001] -- host-time progress report, the one sanctioned wall-clock read
        tables = FIGURES[name](scale, jobs=args.jobs)
        dt = time.time() - t0  # repro: noqa[REP001] -- host-time progress report, the one sanctioned wall-clock read
        all_tables.extend(tables)
        print(render_tables(tables))
        if args.chart or args.logy:
            from .plots import chart_table

            for table in tables:
                print()
                print(chart_table(table, logy=args.logy))
        print(f"   [{name}: {dt:.1f}s wall]\n", flush=True)
    if args.json:
        save_json(all_tables, args.json)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
