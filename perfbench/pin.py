"""Regenerate ``pins.json``: the simulated outputs every run is checked against.

Run from the repository root, only when the model is meant to change::

    python3 perfbench/pin.py

Pins each workload at its benchmark rank count and at half of it (the
scaling probe), keyed by the configuration digest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import suite  # noqa: E402  (needs the source path above)


def main() -> None:
    pins: dict = {}
    for name, cfg in suite.WORKLOADS.items():
        for point_cfg in (cfg, cfg.at(cfg.nprocs // 2)):
            point = suite.Point(point_cfg)
            point.run()
            pins.setdefault(name, {})[point_cfg.digest()] = {
                "nprocs": point_cfg.nprocs, "outputs": point.outputs}
            print(f"{name} @ {point_cfg.nprocs}: {point.outputs}")
    suite.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
