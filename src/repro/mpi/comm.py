"""Simulated MPI communicators and point-to-point messaging.

Each rank of a job holds a :class:`Comm` — its view of a communicator —
with mpi4py-flavoured methods (``send``/``recv``/``bcast``/``gather``/…,
all generators).  Messages are charged against the compute interconnect
model (per-NIC and bisection fair sharing, §repro.cluster.network), which
is the resource the paper's collective index optimizations deliberately
exploit because it sits idle during I/O phases.

Matching is by (source, tag) with FIFO ordering per pair, like MPI's
non-overtaking rule.  Payloads are arbitrary Python objects; the modeled
wire size is passed explicitly (``nbytes``) so that index aggregation
traffic weighs what the real 48-byte-per-record indices weigh.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..cluster import Interconnect, Node
from ..errors import MPIError
from ..sim import Engine, Store

__all__ = ["Communicator", "Comm", "MSG_HEADER_BYTES"]

MSG_HEADER_BYTES = 64  # envelope cost added to every message


class Communicator:
    """Shared state of one communicator: rank->node map and mailboxes."""

    def __init__(self, env: Engine, interconnect: Interconnect,
                 nodes_by_rank: List[Node], name: str = "comm"):
        if not nodes_by_rank:
            raise MPIError("communicator needs at least one rank")
        self.env = env
        self.interconnect = interconnect
        self.nodes = nodes_by_rank
        self.size = len(nodes_by_rank)
        self.name = name
        # Boxes exist only while they hold messages or receivers: recv
        # drops a box it leaves idle, and the next send makes a fresh one.
        self._mail: Dict[Tuple[int, int, Any], Store] = {}
        # Collective seq of a split -> its communicator per color and each
        # parent rank's index in its color's communicator.
        self._splits: Dict[int, Tuple[Dict[int, "Communicator"], Dict[int, int]]] = {}
        self.messages = 0
        self.bytes = 0

    def _box(self, dst: int, src: int, tag: Any) -> Store:
        key = (dst, src, tag)
        box = self._mail.get(key)
        if box is None:
            box = self._mail[key] = Store(self.env)
        return box

    def view(self, rank: int) -> "Comm":
        return Comm(self, rank)


class Comm:
    """One rank's view of a communicator (the object workloads use)."""

    def __init__(self, shared: Communicator, rank: int):
        if not (0 <= rank < shared.size):
            raise MPIError(f"rank {rank} out of range 0..{shared.size - 1}")
        self._shared = shared
        self.rank = rank
        self.size = shared.size
        self.env = shared.env
        self._coll_seq = 0  # SPMD-consistent collective tag counter
        self._trace_depth = 0  # >0 inside a composite collective

    @property
    def node(self) -> Node:
        return self._shared.nodes[self.rank]

    # -- point to point ------------------------------------------------------
    def send(self, dst: int, payload: Any, nbytes: int = 0, tag: Any = 0) -> Generator:
        """Send *payload* to rank *dst*; completes when the message lands."""
        shared = self._shared
        if not (0 <= dst < shared.size):
            raise MPIError(f"send to bad rank {dst}")
        if nbytes < 0:
            raise MPIError(f"negative message size {nbytes}")
        shared.messages += 1
        shared.bytes += nbytes
        yield from shared.interconnect.transfer(
            self.node, shared.nodes[dst], nbytes + MSG_HEADER_BYTES)
        shared._box(dst, self.rank, tag).put(payload)

    def recv(self, src: int, tag: Any = 0) -> Generator:
        """Receive the next message from *src* with *tag*; returns the payload."""
        shared = self._shared
        if not (0 <= src < shared.size):
            raise MPIError(f"recv from bad rank {src}")
        key = (self.rank, src, tag)
        box = shared._box(*key)
        payload = yield box.get()
        # Every collective uses a fresh tag, so an idle box would otherwise
        # live as long as the job.
        if box.idle and shared._mail.get(key) is box:
            del shared._mail[key]
        return payload

    # -- collectives -----------------------------------------------------------
    def _next_tag(self) -> Tuple[str, int]:
        self._coll_seq += 1
        return ("_coll", self._coll_seq)

    def _vrank(self, root: int) -> int:
        return (self.rank - root) % self.size

    def _from_vrank(self, v: int, root: int) -> int:
        return (v + root) % self.size

    # -- the ``collective`` layer event ---------------------------------------
    def _traced(self, op: str, root: Optional[int], gen: Generator) -> Generator:
        """Publish ``collective(communicator, rank, op, root)`` on the
        engine's bus when someone subscribes; otherwise pass *gen* through
        (one bus lookup per collective call)."""
        hooks = self.env.subscribers("collective")
        if not hooks:
            return gen
        return self._publish(hooks, op, root, gen)

    def _publish(self, hooks: Tuple[Callable[..., Any], ...], op: str,
                 root: Optional[int], gen: Generator) -> Generator:
        # Depth guard: composite collectives (barrier, allgather,
        # allreduce, split) are published once, at the granularity the
        # caller wrote — their nested gather/bcast stages stay silent.
        if self._trace_depth == 0:
            for hook in hooks:
                hook(self._shared, self.rank, op, root)
        self._trace_depth += 1
        try:
            result = yield from gen
        finally:
            self._trace_depth -= 1
        return result

    def gather(self, value: Any, nbytes: int = 0, root: int = 0) -> Generator:
        """Binomial-tree gather; root returns the rank-ordered list, others None.

        Message sizes grow up the tree (a subtree's contributions travel
        together), so the root's final receives carry ~size*nbytes — the
        physical reason Index Flatten's close gets slower at scale (§IV-A).
        """
        return self._traced("gather", root, self._gather(value, nbytes, root))

    def _gather(self, value: Any, nbytes: int = 0, root: int = 0) -> Generator:
        tag = self._next_tag()
        size, v = self.size, self._vrank(root)
        # items: list of (orig_rank, value); carried size in acc_bytes
        items = [(self.rank, value)]
        acc_bytes = nbytes
        mask = 1
        while mask < size:
            if v & mask:
                dst = self._from_vrank(v & ~mask, root)
                yield from self.send(dst, (items, acc_bytes), acc_bytes, tag)
                return None
            partner = v | mask
            if partner < size:
                got, got_bytes = yield from self.recv(self._from_vrank(partner, root), tag)
                items.extend(got)
                acc_bytes += got_bytes
            mask <<= 1
        out: List[Any] = [None] * size
        for r, val in items:
            out[r] = val
        return out

    def bcast(self, value: Any, nbytes: int = 0, root: int = 0) -> Generator:
        """Binomial-tree broadcast; every rank returns the root's value.

        Only the root's *nbytes* matters: relays forward the size they
        received, so non-root callers may pass 0.
        """
        return self._traced("bcast", root, self._bcast(value, nbytes, root))

    def _bcast(self, value: Any, nbytes: int = 0, root: int = 0) -> Generator:
        tag = self._next_tag()
        size, v = self.size, self._vrank(root)
        mask = 1
        while mask < size:
            if v & mask:
                value, nbytes = yield from self.recv(self._from_vrank(v - mask, root), tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if v + mask < size:
                yield from self.send(self._from_vrank(v + mask, root),
                                     (value, nbytes), nbytes, tag)
            mask >>= 1
        return value

    def barrier(self) -> Generator:
        """Tree barrier: zero-byte gather then broadcast."""
        return self._traced("barrier", None, self._barrier())

    def _barrier(self) -> Generator:
        yield from self.gather(None, 0, root=0)
        yield from self.bcast(None, 0, root=0)

    def allgather(self, value: Any, nbytes: int = 0) -> Generator:
        """Gather to rank 0 then broadcast the assembled list."""
        return self._traced("allgather", None, self._allgather(value, nbytes))

    def _allgather(self, value: Any, nbytes: int = 0) -> Generator:
        gathered = yield from self.gather(value, nbytes, root=0)
        result = yield from self.bcast(gathered, nbytes * self.size, root=0)
        return result

    def reduce(self, value: Any, op, nbytes: int = 0, root: int = 0) -> Generator:
        """Binomial-tree reduction with a binary *op*; root returns the result."""
        return self._traced("reduce", root, self._reduce(value, op, nbytes, root))

    def _reduce(self, value: Any, op, nbytes: int = 0, root: int = 0) -> Generator:
        tag = self._next_tag()
        size, v = self.size, self._vrank(root)
        acc = value
        mask = 1
        while mask < size:
            if v & mask:
                dst = self._from_vrank(v & ~mask, root)
                yield from self.send(dst, acc, nbytes, tag)
                return None
            partner = v | mask
            if partner < size:
                got = yield from self.recv(self._from_vrank(partner, root), tag)
                acc = op(acc, got)
            mask <<= 1
        return acc

    def allreduce(self, value: Any, op, nbytes: int = 0) -> Generator:
        """Reduce to rank 0 then broadcast the result to every rank."""
        return self._traced("allreduce", None, self._allreduce(value, op, nbytes))

    def _allreduce(self, value: Any, op, nbytes: int = 0) -> Generator:
        acc = yield from self.reduce(value, op, nbytes, root=0)
        result = yield from self.bcast(acc, nbytes, root=0)
        return result

    def scatter(self, values: Optional[List[Any]], nbytes_each: int = 0,
                root: int = 0) -> Generator:
        """Root sends element i to rank i (linear; used for work assignment)."""
        return self._traced("scatter", root,
                            self._scatter(values, nbytes_each, root))

    def _scatter(self, values: Optional[List[Any]], nbytes_each: int = 0,
                 root: int = 0) -> Generator:
        tag = self._next_tag()
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise MPIError("scatter root needs one value per rank")
            for dst in range(self.size):
                if dst == root:
                    continue
                yield from self.send(dst, values[dst], nbytes_each, tag)
            return values[root]
        got = yield from self.recv(root, tag)
        return got

    def alltoall(self, values: List[Any], nbytes_each: int = 0) -> Generator:
        """Pairwise-exchange all-to-all (N-1 rounds); returns received list."""
        return self._traced("alltoall", None,
                            self._alltoall(values, nbytes_each))

    def _alltoall(self, values: List[Any], nbytes_each: int = 0) -> Generator:
        if len(values) != self.size:
            raise MPIError("alltoall needs one value per rank")
        tag = self._next_tag()
        out: List[Any] = [None] * self.size
        out[self.rank] = values[self.rank]
        for step in range(1, self.size):
            dst = (self.rank + step) % self.size
            src = (self.rank - step) % self.size
            # Send and receive concurrently within the step.
            send_proc = self.env.process(self.send(dst, values[dst], nbytes_each, tag))
            got = yield from self.recv(src, tag)
            out[src] = got
            yield send_proc
        return out

    def split(self, color: int, key: Optional[int] = None) -> Generator:
        """Create a sub-communicator per *color* (like MPI_Comm_split).

        Returns this rank's :class:`Comm` view of its new communicator.
        Ordering within a color follows (key, rank).
        """
        # Root None: the color argument is rank-dependent by design (it
        # is how the ranks partition), so the trace records the split
        # itself, not its per-rank color.
        return self._traced("split", None, self._split(color, key))

    def _split(self, color: int, key: Optional[int] = None) -> Generator:
        key = self.rank if key is None else key
        triples = yield from self.allgather((color, key, self.rank), nbytes=24)
        # Every member derives the same partition from the same triples, so
        # the first member to get here builds every color's communicator
        # and the rest look theirs up (keyed by the SPMD-consistent
        # collective seq).
        registry = self._shared._splits
        split = registry.get(self._coll_seq)
        if split is None:
            split = registry[self._coll_seq] = self._partition(triples)
        comms, index = split
        return comms[color].view(index[self.rank])

    def _partition(self, triples: List[Tuple[int, int, int]]
                   ) -> Tuple[Dict[int, "Communicator"], Dict[int, int]]:
        """Each color's communicator, members ordered by (key, rank), and
        every rank's index within its color."""
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for color, key, rank in triples:
            groups.setdefault(color, []).append((key, rank))
        comms: Dict[int, Communicator] = {}
        index: Dict[int, int] = {}
        parent = self._shared
        for color in sorted(groups):
            ranks = [r for _, r in sorted(groups[color])]
            for i, r in enumerate(ranks):
                index[r] = i
            # The collective-seq suffix keeps names unique when one job
            # splits the same parent twice (the two-level parallel read
            # makes a "group" and a "leaders" comm that could otherwise
            # both be ".../split0"), which trace reports rely on.
            comms[color] = Communicator(
                self.env, parent.interconnect, [parent.nodes[r] for r in ranks],
                name=f"{parent.name}/split{color}@{self._coll_seq}",
            )
        return comms, index
