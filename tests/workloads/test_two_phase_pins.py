"""Bit-exact pins of two-phase collective I/O through both stacks.

LANL 3 (§IV-D6) is the paper's one collective workload: every round is a
``write_at_all`` / ``read_at_all`` that runs two-phase I/O.  None of the
benchmark's pinned workloads does collective I/O, so these pins are what
catches a change to that path.  Floats are pinned as ``float.hex``; a
change that means to move the model re-pins them from ``outputs(...)``.
"""

import pytest

from repro.harness.setup import build_world
from repro.units import MiB
from repro.workloads import LANL3, direct_stack, plfs_stack, run_workload

PINS = {
    "direct": {
        "write.bw": "0x1.985da2ef1b058p+26",
        "write.open": "0x1.7164e0cc1fc24p-10",
        "write.io": "0x1.34cb31444a015p-5",
        "write.close": "0x1.0ee1d37d79600p-11",
        "read.bw": "0x1.17d2e75f61212p+29",
        "read.open": "0x1.d06714b256880p-12",
        "read.io": "0x1.9ee70885f40f8p-8",
        "read.close": "0x1.0ee1d37d79600p-11",
        "pfs.osd.bytes": 8388608,
        "pfs.mds.ops": 42,
    },
    "plfs": {
        "write.bw": "0x1.301c0a906fd79p+26",
        "write.open": "0x1.c43bc4e9fd4b9p-6",
        "write.io": "0x1.d6c94c137aab8p-9",
        "write.close": "0x1.95cb01ec29fffp-6",
        "read.bw": "0x1.12b656c2d8eaep+26",
        "read.open": "0x1.5244cd1209948p-8",
        "read.io": "0x1.b03f38521a124p-5",
        "read.close": "0x1.4c0c8fa210a00p-12",
        "pfs.osd.bytes": 8389376,
        "pfs.mds.ops": 151,
    },
}


def outputs(stack_name):
    """Write then cold-read LANL 3 with 16 ranks on 4 nodes (4 aggregators)."""
    if stack_name == "direct":
        world = build_world()
        stack = direct_stack(world)
    else:
        world = build_world(aggregation="parallel")
        stack = plfs_stack(world)
    res = run_workload(world, LANL3(16, total_bytes=4 * MiB, round_bytes=MiB),
                       stack, verify=True)
    assert res.read.verified
    out = {}
    for tag, ph in (("write", res.write), ("read", res.read)):
        out.update({f"{tag}.bw": ph.effective_bandwidth.hex(),
                    f"{tag}.open": ph.open_time.hex(),
                    f"{tag}.io": ph.io_time.hex(),
                    f"{tag}.close": ph.close_time.hex()})
    pools = {id(v.pool): v.pool for v in world.volumes}
    out["pfs.osd.bytes"] = sum(p.total_bytes_moved for p in pools.values())
    servers = {id(v.mds): v.mds for v in world.volumes}
    out["pfs.mds.ops"] = sum(m.total_ops for m in servers.values())
    return out


@pytest.mark.parametrize("stack_name", ["direct", "plfs"])
def test_lanl3_two_phase_outputs_are_pinned(stack_name):
    assert outputs(stack_name) == PINS[stack_name]
