"""Cluster assembly: nodes + interconnect + storage network + rank placement."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..errors import ConfigError
from ..sim import Engine
from .network import Interconnect, StorageNetwork
from .node import Node, NodeSpec

__all__ = ["ClusterSpec", "Cluster", "NodeTable"]


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a whole platform (see :mod:`repro.cluster.presets`)."""

    name: str
    n_nodes: int
    node: NodeSpec = field(default_factory=NodeSpec)
    interconnect_latency: float = 2e-6
    bisection_bw_per_node: float = 1.6e9  # fabric bisection scales with node count
    storage_latency: float = 60e-6
    storage_aggregate_bw: float = 1.25e9  # the paper's 10 GigE uplink
    storage_client_bw: float = 1.25e9

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError(f"cluster needs >= 1 node, got {self.n_nodes}")
        if self.storage_client_bw <= 0:
            raise ConfigError("storage client bandwidth must be positive")
        if self.storage_latency < 0:
            raise ConfigError("storage latency must be non-negative")


class NodeTable(Sequence):
    """A cluster's nodes, each built the first time it is indexed.

    ``len()`` is the platform's node count, and an id outside it raises
    :class:`IndexError`, as for a list; but a Cielo-sized table costs
    nothing until a job places ranks on it.  Node construction schedules
    no event and draws no sequence number, so when a node is built never
    changes a simulated result.
    """

    def __init__(self, n_nodes: int, build: Callable[[int], Node]):
        self._n = n_nodes
        self._build = build
        self._built: Dict[int, Node] = {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, node_id) -> Node:  # type: ignore[override]
        node = self._built.get(node_id)
        if node is None:
            i = range(self._n)[node_id]  # list semantics, IndexError included
            node = self._built.get(i)
            if node is None:
                node = self._built[i] = self._build(i)
        return node

    def built(self) -> List[Node]:
        """The nodes built so far, by id (builds none)."""
        return [self._built[i] for i in sorted(self._built)]


class Cluster:
    """A live simulated platform bound to one engine.

    Rank placement follows the paper's runs: ranks are assigned to nodes in
    contiguous blocks of ``cores`` per node (block placement, the MPI
    default), wrapping around when jobs oversubscribe cores — the paper's
    2048-stream runs on 1024 cores do exactly that.

    ``nodes`` is a :class:`NodeTable`: a node, its page cache and its NICs
    exist once something indexes it, so host memory follows the nodes a
    job touches, not the platform's size.
    """

    def __init__(self, env: Engine, spec: ClusterSpec):
        self.env = env
        self.spec = spec
        self.nodes = NodeTable(
            spec.n_nodes,
            lambda i: Node(i, spec.node, env, spec.storage_client_bw))
        # Inode uids for every volume on this platform (see pfs.namespace).
        self.uids = itertools.count(1)
        self.interconnect = Interconnect(
            env,
            latency=spec.interconnect_latency,
            bisection_bw=spec.bisection_bw_per_node * spec.n_nodes,
        )
        self.storage_net = StorageNetwork(env, aggregate_bw=spec.storage_aggregate_bw)

    def node_for_rank(self, rank: int, nprocs: int) -> Node:
        """Block placement of *nprocs* ranks over the cluster's nodes."""
        if not (0 <= rank < nprocs):
            raise ConfigError(f"rank {rank} out of range for {nprocs} procs")
        per_node = self.spec.node.cores
        node_idx = (rank // per_node) % self.spec.n_nodes
        return self.nodes[node_idx]

    def nodes_used(self, nprocs: int) -> int:
        """How many distinct nodes a job of *nprocs* ranks touches."""
        return min(self.spec.n_nodes, math.ceil(nprocs / self.spec.node.cores))

    def drop_caches(self) -> None:
        """Clear every node's page cache (the paper's cold-read runs)."""
        for node in self.nodes.built():
            node.page_cache.clear()
