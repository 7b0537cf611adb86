"""Self-test of the benchmark's correctness oracle and traced-run determinism.

Run from the repository root (about half a minute)::

    python3 perfbench/selftest.py

For each workload, at half its rank count (the pinned scaling-probe point):

1. an untraced execution reproduces the pins, and perturbing any single
   pinned value by one unit in the last place makes the check fail on
   exactly that value;
2. two traced executions, each in a fresh interpreter, report identical
   count metrics, and both reproduce the pins, so the counting wrappers
   leave the simulated outputs unchanged.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import math
import sys

import run
import suite


def perturbed(value):
    """The pinned value moved by the smallest representable step."""
    if isinstance(value, int):
        return value + 1
    return math.nextafter(float.fromhex(value), math.inf).hex()


def check(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"selftest FAILED: {what}")


def main() -> None:
    pins = suite.load_pins()
    for name, full in suite.WORKLOADS.items():
        cfg = full.at(full.nprocs // 2)
        probe = run.spawn("probe", name, cfg.nprocs)
        check(probe["mismatches"] == [], f"{name}: untraced outputs match pins")
        pinned = pins[name][cfg.digest()]["outputs"]
        for key, value in pinned.items():
            bad = {name: {cfg.digest(): {"outputs": {**pinned, key: perturbed(value)}}}}
            check(suite.mismatches(cfg, probe["outputs"], bad) == [key],
                  f"{name}: perturbing pinned {key} is detected")
        first = run.spawn("traced", name, cfg.nprocs)
        second = run.spawn("traced", name, cfg.nprocs)
        for res in (first, second):
            check(res["mismatches"] == [], f"{name}: traced outputs match pins")
        check(first["counts"] == second["counts"],
              f"{name}: count metrics repeat across traced runs")
        print(f"{name} @ {cfg.nprocs}: oracle detects all {len(pinned)} "
              f"perturbations; {len(first['counts'])} counts repeat exactly")
    print("selftest passed")


if __name__ == "__main__":
    main()
