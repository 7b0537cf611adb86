"""MPI-IO file objects with independent and collective (two-phase) I/O.

``MPIFile.open`` is collective over the job communicator and routes
through an ADIO driver (UFS = direct PFS, PLFS = the middleware).  The
``*_at_all`` operations are two-phase collective buffering [18]: ranks
exchange their small strided pieces over the compute interconnect so that
one aggregator rank per node issues large contiguous file-system requests
— the optimization the paper turns on for LANL 3's 1024-byte records
(§IV-D6).
"""

from __future__ import annotations

from typing import Generator, Iterator, List, Optional, Sequence, Tuple

from ..errors import InvalidArgument
from ..pfs.data import CompositeData, DataSpec, DataView
from ..units import KiB
from .adio import Driver

__all__ = ["MPIFile"]

_DOMAIN_ALIGN = 64 * KiB  # aggregator file domains align here (ROMIO-style)

Piece = Tuple[int, DataSpec]  # (file offset, content)
Request = Tuple[int, int]     # (file offset, length)


class MPIFile:
    """One rank's view of a collectively opened file."""

    def __init__(self, ctx, driver: Driver, handle, path: str):
        self.ctx = ctx
        self.driver = driver
        self.handle = handle
        self.path = path
        self.closed = False

    # -- lifecycle --------------------------------------------------------------
    @classmethod
    def open(cls, ctx, path: str, mode: str, driver: Driver,
             *, independent: bool = False) -> Generator:
        """Collective open; every rank of ``ctx.comm`` must call it.

        ``independent=True`` skips the rank-0 create choreography — used
        for N-N workloads where every rank opens its *own* path (the file
        is still usable with collective ops afterwards).
        """
        comm = None if independent else ctx.comm
        handle = yield from driver.open(ctx.client, comm, path, mode)
        return cls(ctx, driver, handle, path)

    def close(self) -> Generator:
        """Collective close (PLFS flatten aggregation happens here)."""
        if self.closed:
            raise InvalidArgument(self.path, "double close")
        yield from self.driver.close(self.handle, self.ctx.comm)
        self.closed = True

    # -- independent I/O ---------------------------------------------------------
    def write_at(self, offset: int, spec: DataSpec) -> Generator:
        yield from self.driver.write_at(self.handle, offset, spec)

    def read_at(self, offset: int, length: int) -> Generator:
        view = yield from self.driver.read_at(self.handle, offset, length)
        return view

    # -- collective I/O -----------------------------------------------------------
    def write_at_all(self, pieces: Sequence[Piece]) -> Generator:
        """Collective write of this rank's (offset, spec) pieces, two-phase."""
        yield from self._two_phase_write(list(pieces))

    def read_at_all(self, requests: Sequence[Request]) -> Generator:
        """Collective read; returns one DataView per request, in order."""
        result = yield from self._two_phase_read(list(requests))
        return result

    # -- two-phase machinery -----------------------------------------------------
    def _aggregators(self) -> List[int]:
        """One aggregator per node the job spans (``nodes_used(n) <= n``,
        so the ranks picked are distinct and ascending)."""
        size = self.ctx.comm.size
        n = self.ctx.cluster.nodes_used(size)
        return [(i * size) // n for i in range(n)]

    @staticmethod
    def _split(offset: int, length: int, lo: int, dsize: int,
               ndomains: int) -> Iterator[Tuple[int, int, int]]:
        """Cut ``[offset, offset+length)`` at file-domain boundaries.

        Yields ``(domain, piece offset, piece length)`` in ascending
        offset order; the last domain takes everything past its start.
        """
        pos = offset
        end = offset + length
        while pos < end:
            d = min((pos - lo) // dsize, ndomains - 1)
            n = min(end, lo + (d + 1) * dsize) - pos
            yield d, pos, n
            pos += n

    def _domain_bounds(self, all_meta) -> Optional[Tuple[int, int, int, List[int]]]:
        spans = [(off, off + ln) for meta in all_meta for off, ln in meta]
        if not spans:
            return None
        lo = min(s for s, _ in spans)
        hi = max(e for _, e in spans)
        aggs = self._aggregators()
        dsize = -(-(hi - lo) // len(aggs))  # ceil
        dsize = -(-dsize // _DOMAIN_ALIGN) * _DOMAIN_ALIGN  # align up
        return lo, hi, dsize, aggs

    def _two_phase_write(self, pieces: List[Piece]) -> Generator:
        comm, env = self.ctx.comm, self.ctx.env
        meta = [(off, spec.length) for off, spec in pieces]
        all_meta = yield from comm.allgather(meta, nbytes=16 * max(1, len(meta)))
        bounds = self._domain_bounds(all_meta)
        if bounds is None:
            yield from comm.barrier()
            return
        lo, hi, dsize, aggs = bounds
        nd = len(aggs)
        tag = ("_cb_w", comm._next_tag()[1])
        # Split my pieces at domain boundaries, group per owner.
        per_owner: dict = {}
        for off, spec in pieces:
            for d, pos, n in self._split(off, spec.length, lo, dsize, nd):
                per_owner.setdefault(aggs[d], []).append(
                    (pos, spec.slice(pos - off, n)))
        # Dispatch to owners (own contribution stays local).
        local = per_owner.pop(comm.rank, [])
        sends = []
        # Insertion order is a deterministic function of the (rank-ordered)
        # request list and ascending domain walk.
        for owner, chunk in per_owner.items():  # repro: noqa[REP004] -- insertion order derives from the rank-ordered request walk
            nbytes = sum(s.length for _, s in chunk)
            sends.append(env.process(comm.send(owner, chunk, nbytes, tag)))
        # If I am an aggregator, collect and write my domain.
        if comm.rank in aggs:
            me = aggs.index(comm.rank)
            expect = [r for r, meta_r in enumerate(all_meta)
                      if r != comm.rank and any(
                          d == me for off, ln in meta_r
                          for d, _, _ in self._split(off, ln, lo, dsize, nd))]
            collected = list(local)
            for src in expect:
                chunk = yield from comm.recv(src, tag)
                collected.extend(chunk)
            yield from self._write_coalesced(collected)
        for s in sends:
            yield s
        yield from comm.barrier()

    def _write_coalesced(self, collected: List[Piece]) -> Generator:
        """Sort, merge adjacent pieces, and issue one write per contiguous run."""
        collected.sort(key=lambda p: p[0])
        i = 0
        while i < len(collected):
            run_off = collected[i][0]
            run = [collected[i][1]]
            end = run_off + collected[i][1].length
            j = i + 1
            while j < len(collected) and collected[j][0] == end:
                run.append(collected[j][1])
                end += collected[j][1].length
                j += 1
            spec = run[0] if len(run) == 1 else CompositeData(DataView(run))
            yield from self.write_at(run_off, spec)
            i = j

    def _two_phase_read(self, requests: List[Request]) -> Generator:
        comm, env = self.ctx.comm, self.ctx.env
        all_meta = yield from comm.allgather(list(requests),
                                             nbytes=16 * max(1, len(requests)))
        bounds = self._domain_bounds(all_meta)
        if bounds is None:
            yield from comm.barrier()
            return []
        lo, hi, dsize, aggs = bounds
        nd = len(aggs)
        tag = ("_cb_r", comm._next_tag()[1])
        # Aggregator phase: read my domain's needed span once, then serve.
        domain_views: dict = {}
        if comm.rank in aggs:
            d = aggs.index(comm.rank)
            d_lo, d_hi = lo + d * dsize, min(hi, lo + (d + 1) * dsize)
            need_lo, need_hi = None, None
            serves: List[Tuple[int, int, int]] = []  # (dest_rank, off, len)
            for r, meta_r in enumerate(all_meta):
                for off, ln in meta_r:
                    s, e = max(off, d_lo), min(off + ln, d_hi)
                    if e > s:
                        serves.append((r, s, e - s))
                        need_lo = s if need_lo is None else min(need_lo, s)
                        need_hi = e if need_hi is None else max(need_hi, e)
            if need_lo is not None:
                big = yield from self.read_at(need_lo, need_hi - need_lo)
                for dest, s, n in serves:
                    piece = big.slice(s - need_lo, min(n, max(0, big.length - (s - need_lo))))
                    if dest == comm.rank:
                        domain_views[(s, n)] = piece
                    else:
                        yield from comm.send(dest, ((s, n), piece), piece.length, tag)
        # Requester phase: assemble each request from owner pieces.
        out: List[DataView] = []
        expected: dict = {}
        for off, ln in requests:
            for d, pos, n in self._split(off, ln, lo, dsize, nd):
                expected.setdefault((pos, n), aggs[d])
        # Deterministic insertion order (ascending offset walk); the recv
        # sequence below must match the senders' dispatch order, so do NOT
        # re-sort it.
        for key, owner in expected.items():  # repro: noqa[REP004] -- must mirror the senders' dispatch order; do not re-sort
            if owner == comm.rank:
                continue
            got_key, piece = yield from comm.recv(owner, tag)
            domain_views[got_key] = piece
        for off, ln in requests:
            pieces: List[DataSpec] = []
            for _, pos, n in self._split(off, ln, lo, dsize, nd):
                pieces.extend(domain_views[(pos, n)].pieces)
            out.append(DataView(pieces))
        yield from comm.barrier()
        return out
