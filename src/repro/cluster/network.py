"""Network models: the compute interconnect and the dedicated storage network.

The paper's platforms separate the two (§I): a fast interconnect between
compute nodes (InfiniBand / Cray Gemini) that sits idle during I/O phases,
and a much slower dedicated storage network (10 GigE to Panasas).  PLFS's
collective optimizations work precisely by moving load from the storage
network onto the idle interconnect, so both are first-class models here.

A transfer is the fluid-flow approximation: fixed latency, then the bytes
pass through every shared segment of the path *concurrently*; its duration
is the slowest segment's fair share.  Segments are
:class:`~repro.sim.FairShareServer` instances, so contention between any
number of simultaneous transfers is handled in O(log n).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..analysis.sanitize import raw_snapshot, tracked
from ..errors import ConfigError, NetworkPartitioned
from ..sim import Engine, FairShareServer, Join
from .node import Node

if TYPE_CHECKING:
    from .topology import NodeTable

__all__ = ["Interconnect", "StorageNetwork"]


class Interconnect:
    """Compute fabric: per-node NIC in/out servers plus a bisection pipe.

    ``bisection_bw`` caps aggregate traffic crossing the fabric; each
    node's own ``nic_out``/``nic_in`` cap its injection/ejection rate.
    Messages between ranks on the *same* node bypass the fabric and cost a
    memory copy.
    """

    def __init__(self, env: Engine, *, latency: float, bisection_bw: float,
                 local_latency: float = 0.5e-6):
        if latency < 0 or local_latency < 0:
            raise ConfigError("latencies must be non-negative")
        if bisection_bw <= 0:
            raise ConfigError("bisection bandwidth must be positive")
        self.env = env
        self.latency = latency
        self.local_latency = local_latency
        self.fabric = FairShareServer(env, bisection_bw, name="fabric")
        self.messages_sent = 0
        self.bytes_sent = 0

    def transfer(self, src: Node, dst: Node, nbytes: int) -> Generator:
        """Simulated time for *nbytes* from *src* to *dst* (a generator to yield from)."""
        if nbytes < 0:
            raise ConfigError(f"negative transfer size {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if src is dst:
            yield self.env.timeout(self.local_latency + nbytes / src.spec.mem_bw)
            return
        yield self.env.timeout(self.latency)
        if nbytes == 0:
            return
        join = Join(self.env)
        src.nic_out.serve(nbytes, join)
        self.fabric.serve(nbytes, join)
        dst.nic_in.serve(nbytes, join)
        yield join


class StorageNetwork:
    """The dedicated network between compute nodes and the storage system.

    Modeled as one aggregate pipe (the paper's 1.25 GB/s "theoretical peak"
    for the 64-node cluster is the 10 GigE uplink) plus each node's own
    ``storage_nic``.  Both directions share the pipe, as they do on a
    single Ethernet uplink.

    Fault hooks (driven by ``repro.faults``): :meth:`partition` severs the
    link — new transfers raise :class:`NetworkPartitioned`, bytes already
    on the wire freeze until :meth:`heal` — and :attr:`extra_latency` adds
    a jitter term to every traversal (a flapping or congested link).
    """

    def __init__(self, env: Engine, nodes: "NodeTable", *, latency: float,
                 aggregate_bw: float):
        if latency < 0:
            raise ConfigError("latency must be non-negative")
        if aggregate_bw <= 0:
            raise ConfigError("bandwidths must be positive")
        self.env = env
        self.latency = latency
        self.aggregate_bw = aggregate_bw
        self.pipe = FairShareServer(env, aggregate_bw, name="storage-pipe")
        self._nodes = nodes
        # Node ids currently cut off from storage (single-node partitions,
        # as opposed to the whole-link partition() below).  Mutated by the
        # fault injector, read by every transfer — a classic shared set.
        self._partitioned_nodes = tracked(env, set(),
                                          "storage-net.partitioned-nodes")
        self.bytes_moved = 0
        self.down = False
        self.extra_latency = 0.0
        self.partitions = 0

    # -- fault hooks -------------------------------------------------------
    def partition(self) -> None:
        """Sever the link: reject new transfers, freeze bytes on the wire."""
        if self.down:
            return
        self.down = True
        self.partitions += 1
        self.pipe.pause()
        # By id: pausing reschedules in-flight service events, so the
        # order is part of the event schedule.  Only built nodes: an
        # unbuilt node's NIC is idle, and an idle unpaused server behaves
        # as a paused one (the down link rejects every new transfer).
        for node in self._nodes.built():
            node.storage_nic.pause()

    def heal(self) -> None:
        """Reconnect a partitioned link; frozen transfers resume."""
        if not self.down:
            return
        self.down = False
        self.pipe.resume()
        for node in self._nodes.built():
            node.storage_nic.resume()

    def partition_node(self, node_id: int) -> None:
        """Cut one node off from storage: its transfers reject, its bytes
        on the wire freeze, every other node keeps going.  Idempotent.
        An unknown id raises :class:`IndexError` and changes nothing."""
        if node_id in self._partitioned_nodes:
            return
        nic = self._nodes[node_id].storage_nic
        self._partitioned_nodes.add(node_id)
        self.partitions += 1
        nic.pause()

    def heal_node(self, node_id: int) -> None:
        """Reconnect a node severed by :meth:`partition_node`."""
        if node_id not in self._partitioned_nodes:
            return
        self._partitioned_nodes.discard(node_id)
        self._nodes[node_id].storage_nic.resume()

    def partition_snapshot(self) -> set:
        """Plain copy of the partitioned-node set (oracle accessor —
        reads no tracked state, so inspections never perturb footprints)."""
        return set(raw_snapshot(self._partitioned_nodes))

    def _check_up(self) -> None:
        if self.down:
            raise NetworkPartitioned("storage-net", "storage network partitioned")

    def _check_node(self, node: Node) -> None:
        if self.down:
            raise NetworkPartitioned("storage-net", "storage network partitioned")
        if node.id in self._partitioned_nodes:
            raise NetworkPartitioned(
                f"storage-net[node {node.id}]",
                f"node {node.id} partitioned from storage")

    def path_events(self, node: Node, nbytes: int, join: Join) -> None:
        """Fair-share service for *nbytes* crossing this network from/to
        *node*, counted toward *join*.

        The caller's *join* usually also counts the storage-device service
        (the bytes stream through NIC, pipe, and device concurrently).
        """
        self._check_node(node)
        self.bytes_moved += nbytes
        if nbytes == 0:
            return
        node.storage_nic.serve(nbytes, join)
        self.pipe.serve(nbytes, join)

    def transfer(self, node: Node, nbytes: int) -> Generator:
        """Latency plus a full traversal of the network (no device component)."""
        self._check_node(node)
        yield self.env.timeout(self.latency + self.extra_latency)
        join = Join(self.env)
        self.path_events(node, nbytes, join)
        if join.pending:
            yield join
