"""Compute-node model: cores, memory, NICs, and the client page cache.

The page cache matters for one specific effect the paper calls out
(§IV-C): at 1024 concurrent streams the measured read bandwidth *exceeds*
the 1.25 GB/s theoretical peak of the storage network because checkpoint
data written moments earlier is still resident in the compute nodes' page
caches.  We model a per-node LRU cache at block granularity; a read hit
bypasses the storage system entirely.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigError
from ..sim import FairShareServer
from ..units import GiB, MiB

__all__ = ["NodeSpec", "PageCache", "Node"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute node."""

    cores: int = 16
    mem_bytes: int = 32 * GiB
    nic_bw: float = 3.2e9  # interconnect NIC, bytes/s (IB 4x QDR-ish)
    mem_bw: float = 8e9  # intra-node copy bandwidth, bytes/s
    cache_fraction: float = 0.5  # fraction of RAM usable as page cache

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError(f"node needs >= 1 core, got {self.cores}")
        if self.mem_bytes <= 0 or self.nic_bw <= 0 or self.mem_bw <= 0:
            raise ConfigError("node memory and bandwidths must be positive")
        if not (0.0 <= self.cache_fraction <= 1.0):
            raise ConfigError("cache_fraction must be in [0, 1]")


class _Run:
    """Blocks ``first..last`` of one file: resident, and adjacent in LRU
    order, oldest first.  ``prev``/``next`` link the cache's LRU ring."""

    __slots__ = ("uid", "first", "last", "prev", "next")

    def __init__(self, uid: int, first: int, last: int) -> None:
        self.uid = uid
        self.first = first
        self.last = last


_FIRST = attrgetter("first")


class PageCache:
    """Per-node LRU page cache at fixed block granularity.

    Blocks are keyed by ``(file_uid, block_index)``.  ``insert`` populates
    blocks (a write or a completed read fill); ``hit_bytes`` reports how
    much of a byte range is currently resident, touching the blocks it
    finds (LRU update).  Capacity counts blocks; partial blocks round up,
    which is how a real page cache behaves too.

    Residency is stored as runs: a ring of :class:`_Run` in LRU order
    (oldest first), plus each file's runs sorted by first block for
    lookup.  A hit or insert detaches the blocks it touches from their
    runs and appends them at the MRU end, extending the MRU run when they
    continue it.  The result is exactly a per-block LRU list — same hits,
    misses, evictions and order — in memory proportional to the runs, so
    a rank's sequential writes cost one run per call rather than one
    entry per block.
    """

    def __init__(self, capacity_bytes: int, block_size: int = MiB):
        if block_size <= 0:
            raise ConfigError("cache block size must be positive")
        self.block_size = block_size
        self.capacity_blocks = max(0, capacity_bytes // block_size)
        self._ring = _Run(-1, 0, -1)  # sentinel: next is LRU, prev is MRU
        self.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        """Resident ``(file_uid, block_index)`` keys, least recent first."""
        run = self._ring.next
        while run is not self._ring:
            for b in range(run.first, run.last + 1):
                yield run.uid, b
            run = run.next

    def insert(self, file_uid: int, offset: int, length: int, *,
               full_blocks_only: bool = False) -> None:
        """Populate the blocks covering [offset, offset+length).

        ``full_blocks_only`` marks only blocks the range covers entirely —
        the right semantics for read fills, where marking a partially-read
        block resident would let later reads skip storage for bytes that
        never crossed the wire.
        """
        cap = self.capacity_blocks
        if cap == 0 or length <= 0:
            return
        bs = self.block_size
        if full_blocks_only:
            b, last = -(-offset // bs), (offset + length) // bs - 1
        else:
            b, last = offset // bs, (offset + length - 1) // bs
        tail = self._ring.prev
        runs = self._files.setdefault(file_uid, [])
        if (tail.uid == file_uid and tail.first <= b <= tail.last + 1 <= last + 1
                and runs[-1] is tail):
            # The range continues the MRU run, past the file's last
            # resident block (a sequential writer).
            fresh = last - tail.last
            tail.last = last
            self._size += fresh
            if self._size > cap:
                self._evict(self._size - cap)
            return
        while b <= last:
            i = bisect_right(runs, b, key=_FIRST) - 1
            run = runs[i] if i >= 0 else None
            if run is not None and run.last >= b:
                hi = run.last if run.last < last else last
                self._touch(runs, i, run, b, hi)
            else:
                hi = last
                if i + 1 < len(runs) and runs[i + 1].first <= last:
                    hi = runs[i + 1].first - 1
                self._append(runs, file_uid, b, hi)
                self._size += hi - b + 1
                # Evict only after the append: a range longer than the
                # free space evicts its own oldest blocks, as a per-block
                # walk would, and may evict blocks it has not reached yet.
                if self._size > cap:
                    self._evict(self._size - cap)
            b = hi + 1

    def hit_bytes(self, file_uid: int, offset: int, length: int,
                  missed: Optional[List[Tuple[int, int]]] = None) -> int:
        """Bytes of [offset, offset+length) resident in the cache (block-granular).

        When *missed* is given, each maximal run of absent blocks is
        appended to it as ``(offset, length)``, clipped to the range, in
        ascending order: the byte ranges a read must fetch from storage.
        """
        if length <= 0:
            return 0
        bs = self.block_size
        b, last = offset // bs, (offset + length - 1) // bs
        runs = self._files.get(file_uid)
        if not runs:
            self.misses += last - b + 1
            if missed is not None:
                missed.append((offset, length))
            return 0
        end = offset + length
        hit = 0
        while b <= last:
            i = bisect_right(runs, b, key=_FIRST) - 1
            run = runs[i] if i >= 0 else None
            if run is not None and run.last >= b:
                hi = run.last if run.last < last else last
                self.hits += hi - b + 1
                lo_byte, hi_byte = b * bs, (hi + 1) * bs
                hit += ((hi_byte if hi_byte < end else end)
                        - (lo_byte if lo_byte > offset else offset))
                self._touch(runs, i, run, b, hi)
            else:
                hi = last
                if i + 1 < len(runs) and runs[i + 1].first <= last:
                    hi = runs[i + 1].first - 1
                self.misses += hi - b + 1
                if missed is not None:
                    lo_byte, hi_byte = b * bs, (hi + 1) * bs
                    lo_byte = lo_byte if lo_byte > offset else offset
                    missed.append((lo_byte, (hi_byte if hi_byte < end else end) - lo_byte))
            b = hi + 1
        return hit

    def clear(self) -> None:
        ring = self._ring
        ring.prev = ring.next = ring
        self._files: Dict[int, List[_Run]] = {}  # runs by first block
        self._size = 0  # resident blocks

    # -- run surgery -------------------------------------------------------
    def _touch(self, runs: List[_Run], i: int, run: _Run, lo: int, hi: int) -> None:
        """Move resident blocks ``lo..hi`` of ``run`` (``runs[i]``) to the
        MRU end, in ascending order."""
        tail = self._ring.prev
        if run is tail:
            if hi == run.last:
                return  # already the most recent blocks, in order
        elif lo == run.first and hi == run.last:
            self._unlink(run)
            if tail.uid == run.uid and tail.last == lo - 1:
                tail.last = hi
                del runs[i]
            else:
                self._link_mru(run)
            return
        if lo == run.first:
            run.first = hi + 1
        elif hi == run.last:
            run.last = lo - 1
        else:
            rest = _Run(run.uid, hi + 1, run.last)
            run.last = lo - 1
            rest.prev, rest.next = run, run.next
            run.next.prev = rest
            run.next = rest
            runs.insert(i + 1, rest)
        self._append(runs, run.uid, lo, hi)

    def _append(self, runs: List[_Run], uid: int, lo: int, hi: int) -> None:
        """Link blocks ``lo..hi`` (resident nowhere) at the MRU end."""
        tail = self._ring.prev
        if tail.uid == uid and tail.last == lo - 1:
            tail.last = hi
            return
        run = _Run(uid, lo, hi)
        self._link_mru(run)
        insort(runs, run, key=_FIRST)

    def _evict(self, n: int) -> None:
        """Drop the *n* least recently used blocks."""
        self.evictions += n
        self._size -= n
        ring = self._ring
        while n:
            run = ring.next
            size = run.last - run.first + 1
            if size > n:
                run.first += n
                return
            self._unlink(run)
            runs = self._files[run.uid]
            del runs[bisect_left(runs, run.first, key=_FIRST)]
            n -= size

    def _link_mru(self, run: _Run) -> None:
        ring = self._ring
        run.prev, run.next = ring.prev, ring
        ring.prev.next = run
        ring.prev = run

    @staticmethod
    def _unlink(run: _Run) -> None:
        run.prev.next = run.next
        run.next.prev = run.prev


class Node:
    """One compute node: identity, spec, page cache and its three NICs.

    ``nic_out``/``nic_in`` are the node's interconnect injection and
    ejection ports; ``storage_nic`` is its link to the storage network.
    All three are built with the node, so a cluster that builds nodes on
    first touch (:class:`~repro.cluster.topology.Cluster`) allocates
    nothing for nodes a job never uses.
    """

    def __init__(self, node_id: int, spec: NodeSpec, env, storage_bw: float) -> None:
        self.id = node_id
        self.spec = spec
        self.env = env
        self.page_cache = PageCache(int(spec.mem_bytes * spec.cache_fraction))
        self.nic_out = FairShareServer(env, spec.nic_bw, name=f"nic-out[{node_id}]")
        self.nic_in = FairShareServer(env, spec.nic_bw, name=f"nic-in[{node_id}]")
        self.storage_nic = FairShareServer(env, storage_bw, name=f"stor-nic[{node_id}]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.id} cores={self.spec.cores}>"
