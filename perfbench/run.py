"""Repository benchmark: host wall time, RSS and set-up of three figure points.

Run from the repository root::

    python3 perfbench/run.py --workload n1_read_parallel --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload n1_read_parallel --seed 1 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: the
lower quartile of as many executions as fit in ``--seconds``, and of the
set-up times of several fresh interpreters, rescaled to a reference host
speed (see ``calibrate.py``).  ``--trace 1`` prints the
per-layer metrics from one traced execution and a scaling probe at half
the rank count; it runs a fixed amount of work and ignores ``--seconds``.
Every execution's simulated outputs are compared bit-exactly with
``pins.json``; a mismatch or an exception is a failed operation.  The
last stdout line is the result object; the line before it carries
provenance and the raw samples.

The workloads have no random input: ``--seed`` is recorded, and the same
seed (like any seed) gives the same inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7       # fresh interpreters timed for setup_s
MIN_EXECUTIONS = 3      # untraced executions, even if --seconds runs out
PROBE_EXECUTIONS = 3    # per scaling-probe interpreter
CHILD_TIMEOUT_S = 150


def lower_quartile(values) -> float:
    """Lower quartile of repeated timings of identical, deterministic work.

    The executions differ only by host interference, which only ever adds
    time, so the fast half of the samples is the steadier estimate of the
    program's own cost: on a shared host the median of a run drifts with
    neighbours' load.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def rss_mb() -> float:
    """Peak resident set size of this process, MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- child modes: each runs in a fresh interpreter and prints one JSON line --

def child_setup(cfg) -> dict:
    t0 = time.perf_counter()
    import suite
    suite.Point(cfg)
    return {"setup_s": time.perf_counter() - t0}


def child_probe(cfg) -> dict:
    import suite
    pins = suite.load_pins()
    walls, bad, failed = [], [], 0
    for _ in range(PROBE_EXECUTIONS):
        point = suite.Point(cfg)
        walls.append(point.run()["wall"])
        wrong = suite.mismatches(cfg, point.outputs, pins)
        failed += bool(wrong)
        bad += wrong
        outputs, point = point.outputs, None
    return {"wall": lower_quartile(walls), "rss_mb": rss_mb(), "outputs": outputs,
            "executions": PROBE_EXECUTIONS, "failed": failed, "mismatches": bad}


def child_traced(cfg) -> dict:
    """One traced execution.  The profile spans the import of the simulator,
    set-up and the passes, so per-layer host time covers both set-up and
    the run (and no layer reads exactly zero)."""
    import cProfile

    import layers
    import suite
    profile = cProfile.Profile()
    profile.enable()
    with layers.LayerTrace() as trace:
        point = suite.Point(cfg)
        times = point.run()
    profile.disable()
    wrong = suite.mismatches(cfg, point.outputs, suite.load_pins())
    return {"wall": times["wall"], "counts": trace.metrics(point.world),
            "host": layers.host_seconds(profile, SRC / "repro"),
            "outputs": point.outputs,
            "executions": 1, "failed": int(bool(wrong)), "mismatches": wrong}


CHILDREN = {"setup": child_setup, "probe": child_probe, "traced": child_traced}


def spawn(mode: str, workload: str, nprocs: int) -> dict:
    """Run one child mode in a fresh interpreter and return its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--child", mode, "--nprocs", str(nprocs)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} {workload}@{nprocs} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the two measured modes ----------------------------------------------------

def untraced(cfg, seconds: float) -> tuple:
    """End-to-end metrics: set-up in fresh interpreters, passes in this one.

    Between executions the run times :mod:`calibrate`'s reference work.
    Every timing is rescaled by ``REFERENCE_S`` over the lower quartile of
    those samples, which cancels the host's drifting speed.  Peak RSS is
    read after the first execution, before any reference work has run.
    """
    import calibrate
    import suite
    setups = [spawn("setup", cfg.name, cfg.nprocs)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    pins = suite.load_pins()
    samples = {"wall": [], "write": [], "read": [], "reference": []}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_EXECUTIONS or time.perf_counter() < deadline:
        if attempted == 1:
            peak_rss = rss_mb()
        if attempted:
            gc.collect()  # drop the previous world before the reference work
            samples["reference"].append(calibrate.time_reference())
        attempted += 1
        try:
            point = suite.Point(cfg)
            times = point.run()
            bad = suite.mismatches(cfg, point.outputs, pins)
        except Exception as exc:  # a crashed execution is a failed operation
            print(f"execution {attempted} raised {exc!r}", file=sys.stderr)
            failed += 1
            continue
        finally:
            point = None
        if bad:
            print(f"execution {attempted}: outputs differ from pins: {bad}",
                  file=sys.stderr)
            failed += 1
        for key, value in times.items():
            samples[key].append(value)
    if not samples["wall"]:
        raise RuntimeError("every execution failed")
    speed = calibrate.REFERENCE_S / lower_quartile(samples["reference"])
    metrics = {"wall_s": lower_quartile(samples["wall"]) * speed,
               "write_wall_s": lower_quartile(samples["write"]) * speed,
               "read_wall_s": lower_quartile(samples["read"]) * speed,
               "setup_s": lower_quartile(setups) * speed,
               "peak_rss_mb": peak_rss}
    return metrics, attempted, failed, {"speed": speed, "setup_s": setups, **samples}


def traced(cfg) -> tuple:
    """Per-layer metrics: a traced execution and a half-size scaling probe.

    Each probe size runs in its own fresh interpreter, so each RSS belongs
    to one size; the full-size untraced probe is the baseline for
    ``trace.overhead`` and ``sim.events_per_s``.
    """
    half = cfg.nprocs // 2
    runs = {"probe": spawn("probe", cfg.name, cfg.nprocs),
            "probe_half": spawn("probe", cfg.name, half),
            "traced": spawn("traced", cfg.name, cfg.nprocs)}
    for label, res in runs.items():
        if res["mismatches"]:
            print(f"{label}: outputs differ from pins: {res['mismatches']}",
                  file=sys.stderr)
    attempted = sum(res["executions"] for res in runs.values())
    failed = sum(res["failed"] for res in runs.values())
    full, half_run, tr = runs["probe"], runs["probe_half"], runs["traced"]
    metrics = dict(tr["counts"])
    metrics.update(tr["host"])
    metrics.update({
        "sim.events_per_s": tr["counts"]["sim.events"] / full["wall"],
        "trace.overhead": tr["wall"] / full["wall"],
        "scale.wall_ratio": full["wall"] / half_run["wall"],
        "scale.rss_ratio": full["rss_mb"] / half_run["rss_mb"],
    })
    raw = {label: {k: v for k, v in res.items() if k in ("wall", "rss_mb")}
           for label, res in runs.items()}
    raw["half_nprocs"] = half
    return metrics, attempted, failed, raw


# -- provenance ----------------------------------------------------------------

def git_revision() -> str:
    """HEAD's commit from ``.git`` if the tree is a git checkout, else ''."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def source_digest() -> str:
    """sha256 over src/repro's Python sources (identifies the code measured)."""
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import suite
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "config_sha256": {name: cfg.digest() for name, cfg in suite.WORKLOADS.items()},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=sorted(CHILDREN), help=argparse.SUPPRESS)
    parser.add_argument("--nprocs", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"benchmark: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite
    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(suite.WORKLOADS)}")
    cfg = suite.WORKLOADS[args.workload]

    if args.child:
        if args.nprocs:
            cfg = cfg.at(args.nprocs)
        print(json.dumps(CHILDREN[args.child](cfg)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, attempted, failed, raw = traced(cfg)
    else:
        values, attempted, failed, raw = untraced(cfg, args.seconds)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    print(json.dumps({"provenance": provenance(args), "samples": raw}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
