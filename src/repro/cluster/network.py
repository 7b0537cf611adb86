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

from typing import Generator

from ..errors import ConfigError
from ..sim import Engine, FairShareServer, Join
from .node import Node

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
    """

    def __init__(self, env: Engine, *, aggregate_bw: float):
        if aggregate_bw <= 0:
            raise ConfigError("bandwidths must be positive")
        self.pipe = FairShareServer(env, aggregate_bw, name="storage-pipe")
        self.bytes_moved = 0

    def path_events(self, node: Node, nbytes: int, join: Join) -> None:
        """Fair-share service for *nbytes* crossing this network from/to
        *node*, counted toward *join*.

        The caller's *join* usually also counts the storage-device service
        (the bytes stream through NIC, pipe, and device concurrently).
        """
        self.bytes_moved += nbytes
        if nbytes == 0:
            return
        node.storage_nic.serve(nbytes, join)
        self.pipe.serve(nbytes, join)

