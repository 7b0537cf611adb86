"""Metadata server model.

The MDS is a fair-share queueing server measured in *op units* per second
(see :data:`repro.pfs.config.DEFAULT_OP_COSTS`).  Two levels of contention
reproduce the paper's metadata results:

* the server-wide rate bounds the volume's total metadata throughput;
* a much lower *per-directory* rate bounds mutations inside one directory
  — the GIGA+-documented effect (§V) that makes an N-process create storm
  into a single directory so slow, and that federated metadata (multiple
  volumes, each with its own MDS) sidesteps.

Batched entry points (``op(..., count=k)``) let callers charge k identical
ops in one simulated request — essential for the Original-PLFS read path,
where N ranks each open N index files (N² ops total) and simulating each
open as its own event would melt the host.  Fair sharing of a batch's total
demand models the same contention.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..analysis.sanitize import raw_snapshot, tracked
from ..errors import ConfigError, MDSUnavailable
from ..sim import Engine, FairShareServer
from .config import PfsConfig

__all__ = ["MetadataServer"]

# Ops that mutate a directory and therefore hit its single-directory ceiling.
_DIR_MUTATING = frozenset({"create", "mkdir", "unlink", "rmdir", "rename"})


class MetadataServer:
    """One metadata server (one per volume; federation = several volumes).

    Fault hooks (driven by ``repro.faults``): :meth:`crash` drops every
    queued op with :class:`MDSUnavailable` and rejects new ones;
    :meth:`failover` promotes a standby — a *fresh* fair-share server with
    cold per-directory state — after the plan's detection+promotion delay.
    Clients see queued ops fail at crash time and re-submitted ops fail
    fast until the standby is up, which is what their retry/backoff loops
    ride out.
    """

    def __init__(self, env: Engine, cfg: PfsConfig, name: str = "mds"):
        self.env = env
        self.cfg = cfg
        self.name = name
        self.server = FairShareServer(env, cfg.mds_ops_per_sec, name=f"{name}.srv")
        # Both registries are mutated by concurrent client processes and by
        # the fault injector across yields; tracked() is a no-op without a
        # sanitizer and a recording proxy under --instrument sanitize.
        self._dir_servers: Dict[int, FairShareServer] = tracked(
            env, {}, f"{name}.dir-servers")
        self._dir_inflight: Dict[int, int] = tracked(
            env, {}, f"{name}.dir-inflight")
        self.op_counts: Dict[str, int] = {}
        self.down = False
        self.failovers = 0
        self.dropped_ops = 0

    # -- fault hooks -------------------------------------------------------
    def crash(self) -> int:
        """Crash the active MDS: drop queued ops, reject new ones.

        Returns the number of in-flight ops dropped.
        """
        if self.down:
            return 0
        self.down = True
        make_exc = lambda: MDSUnavailable(self.name, f"MDS {self.name!r} crashed")
        dropped = self.server.fail_all(make_exc)
        # Sorted: failing a queue triggers events, so the drop order is
        # part of the event schedule and must not depend on dir creation
        # history.
        for _uid, srv in sorted(self._dir_servers.items()):
            dropped += srv.fail_all(make_exc)
        self.dropped_ops += dropped
        return dropped

    def failover(self) -> None:
        """Promote the standby: fresh service queues, cold directory state."""
        if not self.down:
            return
        self.down = False
        self.failovers += 1
        self.server = FairShareServer(self.env, self.cfg.mds_ops_per_sec,
                                      name=f"{self.name}.srv+{self.failovers}")
        self._dir_servers.clear()

    def registry_snapshot(self) -> Dict[str, Dict[int, int]]:
        """Plain copies of the per-directory registries (oracle accessor).

        Returns ``{"inflight": {dir_uid: count}, "dir_servers": {dir_uid:
        active_jobs}}`` read through :func:`raw_snapshot` so invariant
        checks never perturb sanitizer read vectors or DPOR footprints.
        """
        inflight = dict(raw_snapshot(self._dir_inflight))
        servers = {uid: srv.active
                   for uid, srv in sorted(raw_snapshot(self._dir_servers).items())}
        return {"inflight": inflight, "dir_servers": servers}

    def _dir_server(self, dir_uid: int) -> FairShareServer:
        srv = self._dir_servers.get(dir_uid)
        if srv is None:
            srv = FairShareServer(self.env, self.cfg.dir_ops_per_sec,
                                  name=f"{self.name}.dir{dir_uid}")
            self._dir_servers[dir_uid] = srv
        return srv

    def op(self, kind: str, dir_uid: Optional[int] = None, count: float = 1,
           dir_entries: int = 0) -> Generator:
        """Charge *count* metadata ops of *kind* (a generator to yield from).

        *dir_uid* identifies the directory a mutating op targets; mutations
        additionally share that directory's (much lower) service rate, and
        pay the directory-size degradation factor when *dir_entries* is
        large (see :class:`~repro.pfs.config.PfsConfig`).  *count* may be
        fractional: client-cached re-opens cost a fraction of a full op.
        """
        cost = self.cfg.op_costs.get(kind)
        if cost is None:
            raise ConfigError(f"unknown metadata op {kind!r}")
        if count <= 0:
            raise ConfigError(f"op count must be > 0, got {count}")
        if self.down:
            raise MDSUnavailable(self.name, f"MDS {self.name!r} is down")
        self.op_counts[kind] = self.op_counts.get(kind, 0) + int(round(count))
        yield self.env.timeout(self.cfg.mds_latency)
        if self.down:
            # Crashed while the request was on the wire.
            raise MDSUnavailable(self.name, f"MDS {self.name!r} crashed mid-op")
        demand = cost * count
        if dir_uid is not None and kind in _DIR_MUTATING:
            if self.cfg.dir_degradation_entries > 0:
                # A bulk-synchronous storm submits every create before any
                # commits, so size the directory as committed entries plus
                # the mutations already in flight ahead of this one.
                inflight = self._dir_inflight.get(dir_uid, 0)
                effective = dir_entries + inflight
                if effective > 0:
                    demand *= 1.0 + effective / self.cfg.dir_degradation_entries
            self._dir_inflight[dir_uid] = self._dir_inflight.get(dir_uid, 0) + 1
            try:
                events = [self.server.serve(demand),
                          self._dir_server(dir_uid).serve(demand)]
                yield self.env.all_of(events)
            finally:
                self._dir_inflight[dir_uid] -= 1
        else:
            yield self.server.serve(demand)

    @property
    def total_ops(self) -> int:
        # Integer sum: order-insensitive, exact.
        return sum(self.op_counts.values())  # repro: noqa[REP006] -- integer sum is exact and order-insensitive
