"""Object storage device model and striped data placement.

Each OSD is a fair-share server whose demand currency is *bytes of device
time*: a request costs its payload bytes, plus a fixed per-request overhead,
plus a seek charge when it is not sequential with the previous access to
the same object, all expressed as equivalent bytes at streaming rate.

Sequentiality is tracked **per object**, which is exactly what produces the
paper's §IV-D read asymmetry: N processes streaming N separate PLFS data
logs each advance their own object head-to-tail (prefetch-friendly, no
seeks), while the same N processes reading strided ranges of one shared
file interleave their offsets in the same objects and every request looks
like a seek.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis.sanitize import raw_snapshot, tracked
from ..errors import ConfigError, StorageUnavailable
from ..sim import Engine, Event, FairShareServer
from .config import PfsConfig

__all__ = ["Osd", "OsdPool", "stripe_lanes"]


class Osd:
    """One object storage device.

    Fault hooks (driven by ``repro.faults``): :meth:`fail` marks the device
    down — new requests raise :class:`StorageUnavailable` and in-flight ones
    stall frozen until :meth:`restore` — and :meth:`slow_down` rescales the
    device's service rate (a brown-out).  An untouched OSD has bit-identical
    behaviour to one built before these hooks existed.
    """

    def __init__(self, env: Engine, cfg: PfsConfig, index: int):
        self.env = env
        self.cfg = cfg
        self.index = index
        self.server = FairShareServer(env, cfg.osd_bw, name=f"osd{index}")
        self.down = False
        self.fail_count = 0
        # Per-object sequentiality state, mutated by every client process
        # that touches this device; tracked() is free when no sanitizer is
        # subscribed and a recording proxy under --instrument sanitize.
        self._last_end: Dict[int, int] = tracked(
            env, {}, f"osd{index}.last-end")  # object uid -> end of previous access
        self._last_client: Dict[int, int] = tracked(
            env, {}, f"osd{index}.last-client")  # object uid -> previous client
        self.requests = 0
        self.seeks = 0
        self.stream_switches = 0
        self.bytes_moved = 0

    def stream_snapshot(self) -> Dict[int, Tuple[int, int]]:
        """Plain ``{obj_uid: (last_end, last_client)}`` copy of the
        per-object stream trackers (oracle accessor — reads the raw dicts
        behind the tracked proxies, perturbing nothing)."""
        last_end = raw_snapshot(self._last_end)
        last_client = raw_snapshot(self._last_client)
        return {uid: (end, last_client.get(uid, -1))
                for uid, end in sorted(last_end.items())}

    # -- fault hooks -------------------------------------------------------
    def fail(self) -> None:
        """Take the device down: reject new I/O, freeze in-flight service."""
        if self.down:
            return
        self.down = True
        self.fail_count += 1
        self.server.pause()

    def restore(self) -> None:
        """Bring the device back; frozen in-flight requests resume."""
        if not self.down:
            return
        self.down = False
        self.server.resume()

    def slow_down(self, factor: float) -> None:
        """Degrade the device to ``1/factor`` of configured bandwidth."""
        if not (factor >= 1.0):
            raise ConfigError(f"slow_down factor must be >= 1, got {factor}")
        self.server.set_capacity(self.cfg.osd_bw / factor)

    def restore_speed(self) -> None:
        """Undo :meth:`slow_down`."""
        self.server.set_capacity(self.cfg.osd_bw)

    def _check_up(self) -> None:
        if self.down:
            raise StorageUnavailable(
                f"osd{self.index}", f"OSD {self.index} is down")

    def _demand(self, obj_uid: int, offset: int, nbytes: int, ops: int,
                seek_mult: float, client_id, is_read: bool) -> float:
        """Device-time demand in byte-equivalents for one (merged) request."""
        cfg = self.cfg
        demand = float(nbytes) + ops * cfg.osd_op_overhead * cfg.osd_bw
        if self._last_end.get(obj_uid) != offset:
            self.seeks += 1
            demand += seek_mult * cfg.osd_seek_time * cfg.osd_bw
            # A different client breaking the stream also trashes the
            # object's readahead window (§IV-D: interleaved shared-file
            # readers defeat prefetching; private PLFS logs do not).
            if (is_read and cfg.readahead_waste > 0 and client_id is not None
                    and self._last_client.get(obj_uid, client_id) != client_id):
                self.stream_switches += 1
                demand += cfg.readahead_waste
        if client_id is not None:
            self._last_client[obj_uid] = client_id
        self._last_end[obj_uid] = offset + nbytes
        self.requests += ops
        self.bytes_moved += nbytes
        return demand

    def io(self, obj_uid: int, offset: int, nbytes: int, *, ops: int = 1,
           inflate: float = 1.0, seek_mult: float = 1.0,
           client_id: int = None, is_read: bool = False) -> Event:
        """Submit one request; returns the device completion event.

        *inflate* multiplies the payload demand (read-modify-write: the old
        data and parity move too); *seek_mult* multiplies the positioning
        charge (an RMW's component I/Os each seek); *ops* counts how many
        client requests this merged submission stands for (batched paths),
        each paying the per-request overhead.  *client_id*/*is_read* feed
        the readahead-pollution model.
        """
        if nbytes < 0 or ops < 1 or inflate < 1.0 or seek_mult < 1.0:
            raise ConfigError(f"bad OSD request ({nbytes}, {ops}, {inflate}, {seek_mult})")
        self._check_up()
        base = self._demand(obj_uid, offset, nbytes, ops, seek_mult, client_id, is_read)
        extra = (inflate - 1.0) * nbytes
        return self.server.serve(base + extra)

    def io_many(self, requests: List[Tuple[int, int, int]], *, ops: int = 1,
                inflate: float = 1.0, seek_mult: float = 1.0,
                client_id: int = None, is_read: bool = False) -> List[Event]:
        """Submit several same-instant requests; one event per request.

        *requests* is ``[(obj_uid, offset, nbytes), ...]``, charged in order
        (sequentiality tracking sees exactly the sequence a loop of
        :meth:`io` calls would), then submitted through
        :meth:`FairShareServer.serve_many` so the whole batch pays one
        virtual-time advance, one heap restore, and at most one timer —
        instead of one of each per request.
        """
        if ops < 1 or inflate < 1.0 or seek_mult < 1.0:
            raise ConfigError(f"bad OSD batch ({ops}, {inflate}, {seek_mult})")
        self._check_up()
        demands = []
        for obj_uid, offset, nbytes in requests:
            if nbytes < 0:
                raise ConfigError(f"bad OSD request length {nbytes}")
            base = self._demand(obj_uid, offset, nbytes, ops, seek_mult,
                                client_id, is_read)
            demands.append(base + (inflate - 1.0) * nbytes)
        return self.server.serve_many(demands)

    def forget(self, obj_uid: int) -> None:
        """Drop sequentiality-tracking state for a deleted object."""
        self._last_end.pop(obj_uid, None)


def stripe_lanes(offset: int, length: int, stripe_unit: int, width: int
                 ) -> List[Tuple[int, int, int]]:
    """Split a file byte range into per-lane object runs.

    Returns ``(lane, object_offset, nbytes)`` per lane touched.  Lane *w*
    holds stripe units ``w, w+width, w+2*width, …``; consecutive units on
    one lane are contiguous in its object, so a large write is one
    sequential run per lane — which is why full-stripe I/O streams at
    aggregate device speed.
    """
    if length <= 0:
        return []
    su = stripe_unit
    end = offset + length
    first_unit = offset // su
    last_unit = (end - 1) // su
    out: List[Tuple[int, int, int]] = []
    for k in range(min(width, last_unit - first_unit + 1)):
        unit0 = first_unit + k  # first stripe unit on this lane
        lane = unit0 % width
        count = (last_unit - unit0) // width + 1  # units on this lane
        nbytes = count * su
        if unit0 == first_unit:
            nbytes -= offset - first_unit * su  # partial head unit
        last_on_lane = unit0 + (count - 1) * width
        if last_on_lane == last_unit:
            nbytes -= (last_unit + 1) * su - end  # partial tail unit
        lane_start = max(offset, unit0 * su)
        obj_off = (unit0 // width) * su + (lane_start - unit0 * su)
        out.append((lane, obj_off, nbytes))
    return out


class OsdPool:
    """The volume's set of OSDs plus placement of files onto lanes."""

    def __init__(self, env: Engine, cfg: PfsConfig, name: str = "pool"):
        self.env = env
        self.cfg = cfg
        self.osds = [Osd(env, cfg, i) for i in range(cfg.n_osds)]
        # Object-uid stride: (file, lane) pairs must never alias.  64 covers
        # every historical config; wider stripes round up to a power of two.
        self._uid_mult = max(64, 1 << (cfg.stripe_width - 1).bit_length())

    def lane_osd(self, file_uid: int, lane: int) -> Osd:
        """Round-robin placement: a file's lane *l* lives on one fixed OSD."""
        return self.osds[(file_uid + lane) % self.cfg.n_osds]

    def io_events(self, file_uid: int, offset: int, length: int, *,
                  ops_per_lane: int = 1, inflate: float = 1.0,
                  seek_mult: float = 1.0, client_id: int = None,
                  is_read: bool = False) -> List[Event]:
        """Device events for a file byte-range I/O, one per lane touched.

        The object uid for sequentiality tracking combines file and lane, so
        distinct files never alias each other's streams.  When the stripe is
        wider than the pool (lanes wrap around the OSDs), each OSD's lane
        requests are batched through :meth:`Osd.io_many` so the device pays
        one fair-share submission per OSD rather than one per lane.
        """
        cfg = self.cfg
        mult = self._uid_mult
        lanes = stripe_lanes(offset, length, cfg.stripe_unit, cfg.stripe_width)
        kwargs = dict(ops=ops_per_lane, inflate=inflate, seek_mult=seek_mult,
                      client_id=client_id, is_read=is_read)
        if cfg.stripe_width <= cfg.n_osds:
            # Common case: every lane of one I/O lives on its own OSD.
            return [
                self.lane_osd(file_uid, lane).io(file_uid * mult + lane,
                                                 obj_off, nbytes, **kwargs)
                for lane, obj_off, nbytes in lanes
            ]
        # Wide stripe: group each OSD's lanes (submission-order preserving,
        # so per-object seek accounting is unchanged) and batch per device.
        by_osd: Dict[int, List[int]] = {}
        for i, (lane, _, _) in enumerate(lanes):
            by_osd.setdefault((file_uid + lane) % cfg.n_osds, []).append(i)
        events: List[Event] = [None] * len(lanes)  # type: ignore[list-item]
        for osd_index, idxs in by_osd.items():  # repro: noqa[REP004] - insertion order follows the lane walk above, deterministically
            osd = self.osds[osd_index]
            if len(idxs) == 1:
                lane, obj_off, nbytes = lanes[idxs[0]]
                events[idxs[0]] = osd.io(file_uid * mult + lane, obj_off,
                                         nbytes, **kwargs)
            else:
                reqs = [(file_uid * mult + lanes[i][0], lanes[i][1], lanes[i][2])
                        for i in idxs]
                for i, ev in zip(idxs, osd.io_many(reqs, **kwargs)):
                    events[i] = ev
        return events

    @property
    def total_bytes_moved(self) -> int:
        """Payload bytes the pool has served (both directions)."""
        return sum(o.bytes_moved for o in self.osds)

    @property
    def total_seeks(self) -> int:
        """Non-sequential requests the pool has absorbed."""
        return sum(o.seeks for o in self.osds)
