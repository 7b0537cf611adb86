"""Checker workloads: small concurrent kernels with known ground truth.

A :class:`Scenario` bundles what the model checker needs to explore a
workload: how to build its world, how to drive the concurrent processes,
and the ground truth its oracles compare against (which logical files
exist, what bytes they must hold).  Kernels are deliberately tiny — the
explorer re-runs them hundreds of times — and deliberately *aligned*:
metadata op costs are uniform and write-back/spill buffering is disabled
so that concurrent open/close chains march in lockstep and their
registry-mutating segments become ready at the same simulated instants.
Same-instant readiness is what gives the controlled scheduler genuine
tie-breaks to explore; with staggered costs the chains never meet and
every schedule collapses to the default.

Registry: :data:`SCENARIOS` maps workload names (the ``--workload``
choices of ``python -m repro.analysis check``) to constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from ..faults.policies import RetryPolicy
from ..harness.setup import build_world
from ..pfs.config import DEFAULT_OP_COSTS, PfsConfig
from ..pfs.data import PatternData
from ..pfs.volume import Client
from ..plfs.config import PlfsConfig

__all__ = ["SCENARIOS", "Scenario", "get_scenario"]


@dataclass
class Scenario:
    """One checker workload: world builder, driver, and ground truth."""

    name: str
    description: str
    build: Callable[..., Any]                     # (**build_world kw) -> World
    drive: Callable[[Any], List[Any]]             # world -> live processes
    # path -> write ledger [(offset, length, seed)]; oracles read every
    # path back through all index strategies and compare.
    ledgers: Dict[str, List[Tuple[int, int, int]]] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    equiv_ranks: int = 2


def _aligned_pfs_cfg(**overrides: Any) -> PfsConfig:
    """Uniform-cost metadata, no write-back buffering: lockstep chains.

    Every metadata op costs 0.5 units at 2000 units/s, so a solo serve
    takes exactly ``mds_latency`` (0.25 ms) and a whole op spans two
    latency quanta — concurrent chains issue and complete ops on a
    common grid of instants, which is where tie-breaks live.  Client-side
    metadata caching is off so repeat ops keep the uniform cost.
    """
    kw: Dict[str, Any] = dict(
        op_costs={k: 0.5 for k in DEFAULT_OP_COSTS},
        writeback_bytes=0,
        mds_ops_per_sec=2000.0,       # serve(0.5) == mds_latency == 0.25 ms
        dir_ops_per_sec=2000.0,       # == mds rate: no dir skew
        dir_degradation_entries=0,    # no load-dependent cost terms
        md_client_cache=False,        # cache hits would break uniformity
    )
    kw.update(overrides)
    return PfsConfig(**kw)


# -- smallio: last-closer vs re-opener on one host --------------------------

def _build_smallio(**world_kw: Any) -> Any:
    return build_world(
        pfs_cfg=_aligned_pfs_cfg(),
        plfs_cfg=PlfsConfig(aggregation="parallel", index_spill_records=1),
        **world_kw,
    )


def _drive_smallio(world: Any) -> List[Any]:
    """Writer A closes its handle while writer B re-opens on the same host.

    The timing is engineered so that B's registry *increment* (the final
    segment of its open, riding the index-log create's AllOf) and the
    *retirement* of A's registry entry (the final segment of A's close,
    riding the openhost-unlink AllOf) become ready at the same instant,
    with A's carrier first in eid order.  On the aligned op grid
    (:func:`_aligned_pfs_cfg`, one op = two latency quanta ``L``), A's
    close runs ops at arrival instants L, 3L, 5L, 7L, 9L; B waits 6L so
    its two creates arrive at 7L and 9L and finish in lockstep with A's
    last op.  The default order is clean even for the pre-PR-2 racy
    close — A's whole zero-check window has closed before B's increment
    runs, which is exactly why the single-schedule sanitizer misses the
    re-introduced bug.  One explored deviation fires B's increment
    before A's final segment, landing it inside the racy window: the
    sanitizer sees the lost update and B's own close then crashes on the
    vanished entry.
    """
    env, mount = world.env, world.mount
    node = world.cluster.nodes[0]
    first = Client(node=node, client_id=0)
    second = Client(node=node, client_id=1)
    procs: List[Any] = []
    lat = world.mount.volumes[0].cfg.mds_latency

    def closer(env: Any, handle: Any):
        yield from mount.close_write(handle)

    def reopener(env: Any):
        yield env.timeout(6 * lat)
        h2 = yield from mount.open_write(second, "/f")
        yield from h2.write(8192, PatternData(2, 8192, 4096))
        yield from mount.close_write(h2)

    def writer_a(env: Any):
        h1 = yield from mount.open_write(first, "/f")
        yield from h1.write(0, PatternData(1, 0, 4096))
        # Spawn order seeds the default schedule: the closer's FIFO slot
        # precedes the re-opener's, so A's segments lead B's at every
        # shared instant and the uncontrolled run retires A's registry
        # entry before B's increment — the safe order.
        procs.append(env.process(closer(env, h1), "closer"))
        procs.append(env.process(reopener(env), "reopener"))

    procs.append(env.process(writer_a(env), "writer-a"))
    return procs


def _smallio() -> Scenario:
    return Scenario(
        name="smallio",
        description="same-host close/re-open race on the PLFS host registry",
        build=_build_smallio,
        drive=_drive_smallio,
        ledgers={"/f": [(0, 4096, 1), (8192, 4096, 2)]},
        sizes={"/f": 12288},
    )


# -- federated: concurrent closes across federated volumes ------------------

def _build_federated(**world_kw: Any) -> Any:
    return build_world(
        n_volumes=2,
        pfs_cfg=_aligned_pfs_cfg(),
        plfs_cfg=PlfsConfig(aggregation="parallel", index_spill_records=1,
                            federation="subdir", n_subdirs=2),
        **world_kw,
    )


def _drive_federated(world: Any) -> List[Any]:
    """Two nodes write one container whose subdirs federate across volumes.

    Exercises concurrent skeleton creation, per-node subdir placement,
    and two independent last-closer paths (one host registry each); the
    namespace oracle checks the federation map afterwards.
    """
    env, mount = world.env, world.mount
    a = Client(node=world.cluster.nodes[0], client_id=0)
    b = Client(node=world.cluster.nodes[1], client_id=1)

    def writer(client: Client, offset: int, seed: int):
        h = yield from mount.open_write(client, "/g")
        yield from h.write(offset, PatternData(seed, offset, 4096))
        yield from mount.close_write(h)

    return [
        env.process(writer(a, 0, 3), "writer-n0"),
        env.process(writer(b, 4096, 4), "writer-n1"),
    ]


def _federated() -> Scenario:
    return Scenario(
        name="federated",
        description="two-node writes into a subdir-federated container",
        build=_build_federated,
        drive=_drive_federated,
        ledgers={"/g": [(0, 4096, 3), (4096, 4096, 4)]},
        sizes={"/g": 8192},
    )


# -- partition: retried writes under single-node partitions -----------------

def _build_partition(**world_kw: Any) -> Any:
    return build_world(
        pfs_cfg=_aligned_pfs_cfg(),
        plfs_cfg=PlfsConfig(aggregation="parallel", index_spill_records=1),
        **world_kw,
    )


def _drive_partition(world: Any) -> List[Any]:
    """A retrying writer races the fault injector's partition/heal of its
    node: transfers read the partitioned-node set the injector mutates,
    so their order is a genuine (and explored) tie-break.  The content
    oracle then proves every write survived the faults."""
    env, mount = world.env, world.mount
    node = world.cluster.nodes[0]
    client = Client(node=node, client_id=0)
    net = world.cluster.storage_net
    # Deterministic backoff (no rng => no jitter): replays are exact.
    policy = RetryPolicy(max_retries=8, base_delay=1e-3, jitter=0.0)

    def writer(env: Any):
        h = yield from mount.open_write(client, "/p", retry=policy)
        yield from h.write(0, PatternData(5, 0, 4096))
        yield from h.write(4096, PatternData(6, 4096, 4096))
        yield from mount.close_write(h)

    def chaos(env: Any):
        net.partition_node(node.id)
        yield env.timeout(2e-3)
        net.heal_node(node.id)

    return [
        env.process(writer(env), "writer"),
        env.process(chaos(env), "chaos"),
    ]


def _partition() -> Scenario:
    return Scenario(
        name="partition",
        description="retried writes racing single-node storage partitions",
        build=_build_partition,
        drive=_drive_partition,
        ledgers={"/p": [(0, 4096, 5), (4096, 4096, 6)]},
        sizes={"/p": 8192},
    )


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "smallio": _smallio,
    "federated": _federated,
    "partition": _partition,
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choices: {sorted(SCENARIOS)}")
