"""The benchmark's workloads: three paper figure points, built and run
through the harness's public entry points, plus their pinned outputs.

Nothing here imports :mod:`repro` at module level, so a fresh interpreter
can import this file and start its set-up clock before the simulator
loads.  Every workload is deterministic: content seeds are crc32 of
names, so the simulated outputs are a pure function of :class:`Config`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Union

MB = 1000 * 1000
MiB = 1 << 20
KB = 1000

PINS_PATH = Path(__file__).with_name("pins.json")

Output = Union[int, str]  # ints exactly, floats as float.hex() strings


@dataclass(frozen=True)
class Config:
    """Everything that determines one workload's simulated outputs."""

    name: str
    kind: str              # "io": write pass + read pass; "storm": nn_metadata_storm
    nprocs: int
    cluster: str           # repro.cluster preset
    pfs: str               # repro.pfs preset
    n_volumes: int
    federation: str
    aggregation: str
    size_per_proc: int = 0
    transfer: int = 0
    cold_read: bool = True

    def at(self, nprocs: int) -> "Config":
        return replace(self, nprocs=nprocs)

    def digest(self) -> str:
        """Short hash of the configuration (provenance and pin key)."""
        blob = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


WORKLOADS: Dict[str, Config] = {
    # Fig. 8a N-1 point: collectives and parallel index aggregation.
    "n1_read_parallel": Config(
        "n1_read_parallel", "io", 512, "cielo", "panfs_cielo", 10,
        "subdir", "parallel", 50 * MB, 8 * MiB, cold_read=True),
    # Fig. 8d PLFS-10 point: federated metadata only, no data moved.
    "nn_meta_storm": Config(
        "nn_meta_storm", "storm", 2048, "cielo", "panfs_cielo", 10,
        "container", "parallel"),
    # Fig. 4 cell: small strided writes, warm reads, original aggregation.
    "n1_small_write_original": Config(
        "n1_small_write_original", "io", 128, "lanl64", "panfs", 1,
        "none", "original", 50 * MB, 200 * KB, cold_read=False),
}


class Point:
    """One built workload: the world, the workload object and its stack.

    Construction is the benchmark's set-up; :meth:`run` is the timed part.
    """

    def __init__(self, cfg: Config):
        from repro import cluster, pfs
        from repro.harness.setup import build_world
        from repro.workloads import MPIIOTest, plfs_stack

        self.cfg = cfg
        self.world = build_world(
            cluster_spec=getattr(cluster, cfg.cluster)(),
            pfs_cfg=getattr(pfs, cfg.pfs)(),
            n_volumes=cfg.n_volumes, federation=cfg.federation,
            aggregation=cfg.aggregation)
        if cfg.kind == "io":
            self.workload = MPIIOTest(cfg.nprocs, size_per_proc=cfg.size_per_proc,
                                      transfer=cfg.transfer, layout="strided")
            self.stack = plfs_stack(self.world)
        self.outputs: Dict[str, Output] = {}

    def run(self) -> Dict[str, float]:
        """Execute the workload; returns host seconds per pass.

        ``wall`` spans the first job's start to the last job's end.  The
        storm has one pass, a write-open storm, so its ``write`` and
        ``read`` both carry that pass (every end-to-end metric is
        reported on every workload).
        """
        from repro.workloads import nn_metadata_storm, run_workload

        cfg, world = self.cfg, self.world
        if cfg.kind == "storm":
            t0 = time.perf_counter()
            res = nn_metadata_storm(world, cfg.nprocs, 1, "plfs")
            t1 = time.perf_counter()
            self.outputs = {"storm.open": res.open_time.hex(),
                            "storm.close": res.close_time.hex()}
            times = {"wall": t1 - t0, "write": t1 - t0, "read": t1 - t0}
        else:
            t0 = time.perf_counter()
            w = run_workload(world, self.workload, self.stack, do_read=False).write
            t1 = time.perf_counter()
            r = run_workload(world, self.workload, self.stack, do_write=False,
                             cold_read=cfg.cold_read).read
            t2 = time.perf_counter()
            self.outputs = {}
            for tag, ph in (("write", w), ("read", r)):
                self.outputs.update({
                    f"{tag}.bw": ph.effective_bandwidth.hex(),
                    f"{tag}.open": ph.open_time.hex(),
                    f"{tag}.io": ph.io_time.hex(),
                    f"{tag}.close": ph.close_time.hex(),
                })
            times = {"wall": t2 - t0, "write": t1 - t0, "read": t2 - t1}
        self.outputs["pfs.osd.bytes"] = osd_bytes(world)
        self.outputs["pfs.mds.ops"] = mds_ops(world)
        return times


def osd_bytes(world) -> int:
    """Payload bytes served by the world's distinct OSD pools."""
    pools = {id(v.pool): v.pool for v in world.volumes}
    return sum(p.total_bytes_moved for p in pools.values())


def mds_ops(world) -> int:
    """Metadata ops charged on the world's distinct metadata servers."""
    servers = {id(v.mds): v.mds for v in world.volumes}
    return sum(m.total_ops for m in servers.values())


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as f:
        return json.load(f)


def mismatches(cfg: Config, outputs: Dict[str, Output], pins: dict) -> List[str]:
    """Keys whose output differs from the pinned value (empty = correct).

    Pins are keyed by workload name and config digest, so a point whose
    configuration has no pin fails rather than passing unchecked.
    """
    pin = pins.get(cfg.name, {}).get(cfg.digest())
    if pin is None:
        return [f"no pin for {cfg.name} at {cfg.digest()}"]
    want = pin["outputs"]
    keys = sorted(set(want) | set(outputs))
    return [k for k in keys if want.get(k) != outputs.get(k)]
