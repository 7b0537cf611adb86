"""The simulation path does not load numpy.

numpy costs every figure point's interpreter about a third of its start-up
time and a fixed ~12 MB of RSS, and the simulator needs it only to
materialize content and to draw fault-plan random streams.  This runs the
benchmark's three figure points (``perfbench/suite.py``) in an interpreter
where ``import numpy`` fails, and checks their outputs against the pins,
so one test asserts both that the path is numpy-free and that it is exact.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
sys.path.insert(0, "perfbench")
import repro
import suite
pins = suite.load_pins()
for name, cfg in suite.WORKLOADS.items():
    point = suite.Point(cfg)
    point.run()
    print(name, suite.mismatches(cfg, point.outputs, pins))
"""


def test_figure_points_run_exactly_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "n1_read_parallel []",
        "nn_meta_storm []",
        "n1_small_write_original []",
    ]
