"""Per-layer counts and host time for the traced run, gathered from outside.

:class:`LayerTrace` patches counting wrappers onto public functions and
constructors of the simulator's classes for the duration of a ``with``
block, and restores the originals on exit.  The wrappers only count; they
change no argument or result, so the simulated outputs stay bit-identical
(the traced run re-checks them against the pins).  Host time is cProfile
tottime summed by source file under ``src/repro/`` and grouped by layer.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import suite

COLLECTIVES = ("gather", "bcast", "barrier", "allgather", "reduce",
               "allreduce", "scatter", "alltoall", "split")

# (metric, module, class, attribute, weight of one call or None for 1)
HOOKS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("sim.fairshare.serves", "repro.sim.resources", "FairShareServer", "serve", None),
    ("sim.fairshare.serves", "repro.sim.resources", "FairShareServer", "serve_many",
     lambda args, kwargs: len(args[1])),
    ("sim.timers", "repro.sim.engine", "Engine", "schedule_at", None),
    ("cluster.pagecache.lookups", "repro.cluster.node", "PageCache", "hit_bytes", None),
    ("pfs.osd.io_events_calls", "repro.pfs.osd", "OsdPool", "io_events", None),
    ("pfs.mds.op_calls", "repro.pfs.mds", "MetadataServer", "op", None),
    ("pfs.ns.resolves", "repro.pfs.namespace", "Namespace", "resolve", None),
    ("pfs.extents.queries", "repro.pfs.extents", "FlatMap", "query", None),
    ("plfs.io.writes", "repro.plfs.writer", "PlfsWriteHandle", "write", None),
    ("plfs.io.reads", "repro.plfs.reader", "PlfsReadHandle", "read", None),
    ("plfs.index.parses", "repro.plfs.index", "WriterIndex", "parse", None),
    ("plfs.index.merges", "repro.plfs.index", "GlobalIndex", "merge", None),
    ("plfs.index.merges", "repro.plfs.index", "GlobalIndex", "merged", None),
    ("plfs.index.records", "repro.plfs.index", "WriterIndex", "record", None),
] + [("mpi.collectives", "repro.mpi.comm", "Comm", op, None) for op in COLLECTIVES]

# Source files under src/repro/ -> layer; the first matching prefix wins.
HOST_LAYERS: List[Tuple[str, Tuple[str, ...]]] = [
    ("sim.host_s", ("sim/",)),
    ("cluster.host_s", ("cluster/",)),
    ("pfs.osd.host_s", ("pfs/osd.py",)),
    ("pfs.mds.host_s", ("pfs/mds.py",)),
    ("pfs.ns.host_s", ("pfs/",)),
    ("plfs.index.host_s", ("plfs/index.py", "plfs/aggregation.py", "plfs/container.py")),
    ("plfs.io.host_s", ("plfs/",)),
    ("mpi.host_s", ("mpi/",)),
    ("mpiio.host_s", ("mpiio/",)),
    ("workloads.host_s", ("workloads/",)),
]


def _counting(fn: Callable, counts: Counter, metric: str,
              weight: Optional[Callable]) -> Callable:
    def wrapper(*args, **kwargs):
        counts[metric] += 1 if weight is None else weight(args, kwargs)
        return fn(*args, **kwargs)
    return wrapper


class LayerTrace:
    """Install counting wrappers for one traced run (a context manager)."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.communicators: list = []
        self._saved: List[Tuple[type, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        for metric, module, cls_name, attr, weight in HOOKS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(_counting(raw.__func__, self.counts, metric, weight))
            else:
                new = _counting(raw, self.counts, metric, weight)
            self._patch(cls, attr, new)
        comm_cls = importlib.import_module("repro.mpi.comm").Communicator
        init = comm_cls.__dict__["__init__"]
        made = self.communicators

        def communicator_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            made.append(obj)

        self._patch(comm_cls, "__init__", communicator_init)
        return self

    def _patch(self, cls: type, attr: str, new: object) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, attr, raw = self._saved.pop()
            setattr(cls, attr, raw)

    def metrics(self, world) -> Dict[str, int]:
        """Every count metric, read after the run from wrappers and counters."""
        out = {name: self.counts[name] for name in sorted({h[0] for h in HOOKS})}
        pools = {id(v.pool): v.pool for v in world.volumes}
        osds = [o for p in pools.values() for o in p.osds]
        comms = self.communicators
        out.update({
            "sim.events": world.env._eid,
            "cluster.fabric.messages": world.cluster.interconnect.messages_sent,
            "pfs.osd.requests": sum(o.requests for o in osds),
            "pfs.osd.bytes": suite.osd_bytes(world),
            "pfs.osd.seeks": sum(o.seeks for o in osds),
            "pfs.mds.ops": suite.mds_ops(world),
            "mpi.messages": sum(c.messages for c in comms),
            "mpi.bytes": sum(c.bytes for c in comms),
            "mpi.communicators": len(comms),
            "mpi.mailboxes": sum(len(c._mail) for c in comms),
        })
        return out


def host_seconds(profile: cProfile.Profile, src_root: Path) -> Dict[str, float]:
    """cProfile tottime per layer, over functions defined under *src_root*."""
    out = {name: 0.0 for name, _ in HOST_LAYERS}
    root = str(src_root.resolve()) + "/"
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        if not filename.startswith(root):
            continue
        rel = filename[len(root):]
        for name, prefixes in HOST_LAYERS:
            if rel.startswith(prefixes):
                out[name] += row[2]
                break
    return out
