"""World assembly: wire a cluster, backing volumes, and a PLFS mount.

Federated volumes share one physical OSD pool and lock domain — they are
realms of a single storage system divided among metadata servers, which
is exactly the PanFS arrangement the paper federates over (§V).
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..analysis.sanitize import Sanitizer
from ..errors import ConfigError
from ..mpi.trace import CollectiveTracer
from ..cluster import Cluster, ClusterSpec, NodeSpec
from ..pfs import PfsConfig, Volume, panfs
from ..pfs.locks import RangeLockManager
from ..pfs.osd import OsdPool
from ..plfs import PlfsConfig, PlfsMount
from ..sim import Engine

__all__ = ["INSTRUMENTS", "World", "build_world", "parse_instruments"]

# Runtime checkers by ``--instrument`` name: observer factories that
# build_world() subscribes to each new engine.  The harness passes the
# names to every world through this variable, so ``--jobs`` sweep worker
# processes inherit them.
INSTRUMENT_ENV = "REPRO_INSTRUMENT"
INSTRUMENTS: Dict[str, Callable[[Any], Any]] = {
    # Yield-point race sanitizer: RaceConditionError at a stale write.
    "sanitize": Sanitizer,
    # Per-communicator collective congruence, checked at each job drain.
    "collectives": lambda env: CollectiveTracer(strict=True),
}


def parse_instruments(spec: str) -> List[str]:
    """The names in a comma-separated ``--instrument`` value."""
    names = [n.strip() for n in spec.split(",") if n.strip()]
    unknown = [n for n in names if n not in INSTRUMENTS]
    if unknown:
        raise ConfigError(f"unknown instrument(s) {', '.join(unknown)}; "
                          f"choose from {', '.join(INSTRUMENTS)}")
    return names


@dataclass
class World:
    """One assembled simulation: engine, cluster, backing volumes, PLFS mount."""

    env: Engine
    cluster: Cluster
    volumes: List[Volume]
    mount: PlfsMount

    @property
    def volume(self) -> Volume:
        """The first backing volume (the 'without PLFS' direct-access target)."""
        return self.volumes[0]

    def drop_caches(self) -> None:
        """Cold-start every client: page caches and metadata caches."""
        self.cluster.drop_caches()
        for vol in self.volumes:
            vol._md_cache.clear()


def build_world(*, n_volumes: int = 1, n_nodes: int = 4, cores: int = 4,
                pfs_cfg: Optional[PfsConfig] = None,
                cluster_spec: Optional[ClusterSpec] = None,
                plfs_cfg: Optional[PlfsConfig] = None,
                instrument: Optional[str] = None,
                **plfs_kw) -> World:
    """Build a world.

    ``plfs_kw`` forwards to :class:`~repro.plfs.PlfsConfig`
    (``aggregation=...``, ``federation=...``, ...) unless an explicit
    ``plfs_cfg`` is given.  *instrument* names the :data:`INSTRUMENTS` to
    subscribe (comma-separated); None reads ``REPRO_INSTRUMENT``.
    """
    # Sweeps build worlds in a loop; a retired world is hundreds of MB of
    # cyclic engine/namespace references at paper scale, and the cycle
    # collector doesn't keep up on its own.  Reclaim before building.
    gc.collect()
    env = Engine()
    if instrument is None:
        instrument = os.environ.get(INSTRUMENT_ENV, "")
    # Before any component exists: the sanitizer must see every shared
    # container registered and every process spawned.
    for name in parse_instruments(instrument):
        env.subscribe(INSTRUMENTS[name](env))
    spec = cluster_spec or ClusterSpec(name="world", n_nodes=n_nodes,
                                       node=NodeSpec(cores=cores))
    cluster = Cluster(env, spec)
    cfg = pfs_cfg or panfs()
    pool = OsdPool(env, cfg)
    locks = RangeLockManager(env, cfg)
    volumes = [Volume(env, cluster, cfg, name=f"vol{i}", pool=pool, locks=locks)
               for i in range(n_volumes)]
    mount = PlfsMount(env, volumes, plfs_cfg or PlfsConfig(**plfs_kw))
    return World(env=env, cluster=cluster, volumes=volumes, mount=mount)
