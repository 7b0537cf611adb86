"""Semantic invariant oracles for the schedule-exploring model checker.

The checker (:mod:`repro.analysis.explore`) runs a workload under many
interleavings; these oracles say what *correct* means independently of
any particular schedule.  Two tiers:

* **quick invariants** (:func:`quick_invariants`) — cheap structural
  checks evaluated at every quiescent point of every explored schedule:
  host-refcount non-negativity and per-directory inflight-counter
  sanity.  They read simulator state exclusively through the
  ``*_snapshot`` accessors the registry modules export, so evaluating
  them never perturbs the sanitizer's read vectors or the DPOR
  footprints.

* **final oracles** — PLFS semantic invariants checked once a schedule
  has drained: the container namespace is consistent (no orphaned
  openhost marks or droppings, subdir spread matches the federation
  map, meta droppings account for every index record —
  :func:`check_namespace`); every logical byte in the merged index maps
  to exactly one live data-log extent (:func:`check_conservation`); and
  all three index-aggregation strategies return byte-identical data
  matching the workload's write ledger (:func:`check_index_equivalence`
  — also reused directly by the property tests).

Every oracle returns a list of violation messages; empty means the
invariant holds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mpi.runtime import run_job
from ..pfs.data import pattern_bytes
from ..pfs.volume import Client
from ..plfs.aggregation import (
    aggregate_original,
    aggregate_parallel,
    read_flattened_index,
)
from ..pfs.extents import RECORD_BYTES
from ..plfs.container import parse_log_name, parse_meta_dropping
from ..plfs.index import GlobalIndex
from ..plfs.reader import PlfsReadHandle
from ..plfs.writer import host_refs_snapshot

__all__ = [
    "check_conservation",
    "check_index_equivalence",
    "check_namespace",
    "expected_bytes",
    "quick_invariants",
    "read_back",
]


# -- quick invariants (every quiescent point) ------------------------------

def quick_invariants(world: Any) -> List[str]:
    """Cheap structural invariants; safe to evaluate mid-run."""
    out: List[str] = []
    for vol in world.volumes:
        for (path, node_id), entry in sorted(host_refs_snapshot(vol).items()):
            rc, max_eof, records = entry
            if rc < 0:
                out.append(
                    f"negative host refcount {rc} for container {path!r} "
                    f"node {node_id} on volume {vol.name!r}")
            if max_eof < 0 or records < 0:
                out.append(
                    f"negative accumulators {entry} for container {path!r} "
                    f"node {node_id} on volume {vol.name!r}")
        snap = vol.mds.registry_snapshot()
        for dir_uid, inflight in sorted(snap["inflight"].items()):
            if inflight < 0:
                out.append(
                    f"negative dir-inflight count {inflight} for dir "
                    f"{dir_uid} on MDS of volume {vol.name!r}")
    return out


# -- final oracle: namespace consistency -----------------------------------

def check_namespace(world: Any, path: str) -> List[str]:
    """Container-namespace consistency once all writers have closed.

    Checks: the host registry is drained for the container; no openhost
    marks remain; every data log pairs with an index log (and vice
    versa); each writer's droppings sit in the subdir the federation map
    assigns its node; meta droppings parse and account for exactly the
    records the index logs hold; subdirs exist only on their mapped
    volumes.
    """
    layout = world.mount.layout(path)
    out: List[str] = []
    home = layout.home_volume
    for (p, node_id), entry in sorted(host_refs_snapshot(home).items()):
        if p == layout.path:
            out.append(
                f"host registry not drained after close: entry "
                f"{entry} for node {node_id} of {path!r}")
    cnode = home.ns.try_resolve(layout.path)
    if cnode is None or not cnode.is_dir:
        out.append(f"container {path!r} missing on home volume {home.name!r}")
        return out
    oh = home.ns.try_resolve(layout.openhosts_path)
    if oh is not None and oh.children:
        out.append(
            f"orphaned openhost marks after close: {sorted(oh.children)}")

    meta_eof, meta_records = 0, 0
    meta = home.ns.try_resolve(layout.meta_path)
    if meta is None:
        out.append(f"meta dir of {path!r} missing")
    else:
        for name in sorted(meta.children or {}):
            try:
                eof, nrec, node_id, _writer = parse_meta_dropping(name)
            except Exception:
                out.append(f"unparseable meta dropping {name!r}")
                continue
            meta_eof = max(meta_eof, eof)
            meta_records += nrec

    index_records = 0
    for s in range(layout.cfg.n_subdirs):
        mapped = layout.subdir_volume(s)
        for vol in layout.all_volumes():
            sd = vol.ns.try_resolve(layout.subdir_path(s))
            if sd is None:
                continue
            if vol is not mapped:
                out.append(
                    f"subdir {s} of {path!r} found on volume {vol.name!r}, "
                    f"federation maps it to {mapped.name!r}")
                continue
            datas, indexes = set(), set()
            for name in sorted(sd.children or {}):
                child = (sd.children or {})[name]
                parsed = parse_log_name(name)
                if parsed is None:
                    out.append(f"unexpected dropping {name!r} in subdir {s}")
                    continue
                kind, node_id, writer = parsed
                if kind == "data":
                    datas.add((node_id, writer))
                else:
                    indexes.add((node_id, writer))
                    index_records += (child.data.size if child.data else 0) \
                        // RECORD_BYTES
                if layout.subdir_for_writer(node_id) != s:
                    out.append(
                        f"dropping {name!r} of node {node_id} landed in "
                        f"subdir {s}, federation maps it to "
                        f"{layout.subdir_for_writer(node_id)}")
            for node_id, writer in sorted(datas - indexes):
                out.append(
                    f"data log of writer {writer} (node {node_id}) has no "
                    f"index log")
            for node_id, writer in sorted(indexes - datas):
                out.append(
                    f"index log of writer {writer} (node {node_id}) has no "
                    f"data log")
    if meta_records != index_records:
        out.append(
            f"meta droppings account for {meta_records} records but index "
            f"logs hold {index_records}")
    return out


# -- final oracle: conservation --------------------------------------------

def check_conservation(world: Any, path: str, gi: GlobalIndex) -> List[str]:
    """Every logical byte of the merged index maps to one live extent.

    The merged journal's flatten already guarantees *at most one* extent
    per byte; what a lost metadata update breaks is *liveness* — a
    record pointing into a data log that was clobbered or never grew to
    the promised length.  Walks the journal records and checks each
    referenced extent against the actual data-log inode.
    """
    layout = world.mount.layout(path)
    out: List[str] = []
    for i, (start, length, src_off, _stamp, writer_id, _pad) in enumerate(
            gi.journal.records()):
        node_id = gi.writers.get(writer_id)
        if node_id is None:
            out.append(
                f"index record {i} names unknown writer {writer_id}")
            continue
        vol = layout.subdir_volume(layout.subdir_for_writer(node_id))
        log_path = layout.data_log_path(node_id, writer_id)
        inode = vol.ns.try_resolve(log_path)
        if inode is None or inode.data is None:
            out.append(
                f"index record {i} (logical [{start}, {start + length})) "
                f"points at missing data log {log_path!r}")
            continue
        end = src_off + length
        if inode.data.size < end:
            out.append(
                f"index record {i} needs {end} bytes of {log_path!r}, "
                f"which holds only {inode.data.size}")
    if gi.logical_size != gi.journal.size:  # pragma: no cover - defensive
        out.append(
            f"merged index logical size {gi.logical_size} != journal "
            f"extent size {gi.journal.size}")
    return out


# -- final oracle: index-strategy equivalence ------------------------------

def expected_bytes(size: int, ledger: Sequence[Tuple[int, int, int]]) -> bytes:
    """Ground-truth content from a write ledger of (offset, length, seed).

    Unwritten ranges are holes and read back as zeros, which is what the
    ``np.zeros`` base models.
    """
    import numpy as np

    buf = np.zeros(size, dtype=np.uint8)
    for offset, length, seed in ledger:
        buf[offset:offset + length] = pattern_bytes(seed, offset, length)
    return buf.tobytes()


def _read_full(layout: Any, client: Client, gi: GlobalIndex):
    handle = PlfsReadHandle(layout, client, gi)
    view = yield from handle.read(0, gi.logical_size)
    yield from handle.close()
    return view.to_bytes()


def read_back(world: Any, path: str, strategy: str, *, ranks: int = 1,
              client_id_base: int = 9000) -> Optional[bytes]:
    """Simulated full read of *path* via one aggregation *strategy*.

    ``"original"`` aggregates every index log itself; ``"parallel"``
    runs a *ranks*-rank collective (the genuine hierarchical path needs
    >= 2 ranks — with one it degrades to original); ``"flatten"``
    reads the global.index dropping and returns None when the workload
    never produced one.
    """
    env = world.env
    layout = world.mount.layout(path)
    if strategy == "original":
        client = Client(node=world.cluster.nodes[0],
                        client_id=client_id_base)

        def go_original():
            gi = yield from aggregate_original(layout, client, {})
            return (yield from _read_full(layout, client, gi))

        return env.run_process(go_original(), "oracle-read-original")
    if strategy == "flatten":
        client = Client(node=world.cluster.nodes[0],
                        client_id=client_id_base)

        def go_flatten():
            gi = yield from read_flattened_index(layout, client, None)
            if gi is None:
                return None
            return (yield from _read_full(layout, client, gi))

        return env.run_process(go_flatten(), "oracle-read-flatten")
    if strategy == "parallel":
        cfg = world.mount.cfg

        def rank_fn(ctx):
            gi = yield from aggregate_parallel(layout, ctx.client, ctx.comm,
                                               cfg)
            if ctx.rank == 0:
                return (yield from _read_full(layout, ctx.client, gi))
            return None

        result = run_job(env, world.cluster, ranks, rank_fn,
                         name="oracle-read-parallel",
                         client_id_base=client_id_base)
        return result.results[0]
    raise ValueError(f"unknown read-back strategy {strategy!r}")


def check_index_equivalence(world: Any, path: str, size: int,
                            ledger: Sequence[Tuple[int, int, int]], *,
                            ranks: int = 2) -> List[str]:
    """All index strategies agree with each other and with the ledger.

    Reads the file back via original, parallel (a *ranks*-rank
    collective), and — when a global.index exists — flattened
    aggregation; every result must equal :func:`expected_bytes` of the
    write ledger.  Reused by the checker as a final oracle and by the
    property tests standalone.
    """
    out: List[str] = []
    expect = expected_bytes(size, ledger)
    original = read_back(world, path, "original", client_id_base=9000)
    if len(original) != size:
        out.append(
            f"original read-back of {path!r} returned {len(original)} "
            f"bytes, expected {size}")
    if original != expect:
        out.append(
            f"original read-back of {path!r} differs from the write ledger")
    parallel = read_back(world, path, "parallel", ranks=max(ranks, 2),
                         client_id_base=9100)
    if parallel != expect:
        out.append(
            f"parallel-index read-back of {path!r} differs from the "
            f"write ledger (and the original strategy)")
    flattened = read_back(world, path, "flatten", client_id_base=9200)
    if flattened is not None and flattened != expect:
        out.append(
            f"flattened read-back of {path!r} differs from the write ledger")
    return out
