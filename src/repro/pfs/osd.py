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

from ..analysis.sanitize import tracked
from ..errors import ConfigError, StorageUnavailable
from ..sim import Engine, FairShareServer, Join
from .config import PfsConfig

__all__ = ["Osd", "OsdPool", "stripe_lanes"]


class Osd:
    """One object storage device.

    Fault hooks (driven by ``repro.faults``): :meth:`fail` marks the device
    down — new requests raise :class:`StorageUnavailable` and in-flight ones
    stall frozen until :meth:`restore`.  An untouched OSD has bit-identical
    behaviour to one built before these hooks existed.
    """

    def __init__(self, env: Engine, cfg: PfsConfig, index: int):
        self.env = env
        self.cfg = cfg
        self.index = index
        self.server = FairShareServer(env, cfg.osd_bw, name=f"osd{index}")
        self.down = False
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

    # -- fault hooks -------------------------------------------------------
    def fail(self) -> None:
        """Take the device down: reject new I/O, freeze in-flight service."""
        if self.down:
            return
        self.down = True
        self.server.pause()

    def restore(self) -> None:
        """Bring the device back; frozen in-flight requests resume."""
        if not self.down:
            return
        self.down = False
        self.server.resume()

    def _check_up(self) -> None:
        if self.down:
            raise StorageUnavailable(
                f"osd{self.index}", f"OSD {self.index} is down")


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

    def io_events(self, file_uid: int, offset: int, length: int, join: Join,
                  *, inflate: float = 1.0,
                  seek_mult: float = 1.0, client_id: int = None,
                  is_read: bool = False) -> None:
        """Device service for a file byte-range I/O, one job per lane
        touched, each counted toward *join*.

        Every OSD request is charged here, lane by lane in lane order, and
        served on its OSD as soon as it is charged.  A lane's device-time
        demand, in byte-equivalents: its payload, plus the per-request
        overhead, plus *seek_mult* seeks when it does not continue the
        object's previous access, plus the readahead window a read trashes
        when it breaks another client's stream, plus the payload again
        ``inflate - 1`` times.  *inflate* models read-modify-write (the old
        data and parity move too); *seek_mult* that an RMW's component I/Os
        each seek.  The constants are computed once per call, not once per
        lane.  The object uid for sequentiality tracking combines file and
        lane, so distinct files never alias each other's streams; since a
        stripe never wraps the pool, each lane is on its own OSD.
        """
        if inflate < 1.0 or seek_mult < 1.0:
            raise ConfigError(f"bad OSD request ({inflate}, {seek_mult})")
        cfg = self.cfg
        osds, n_osds = self.osds, cfg.n_osds
        base = file_uid * self._uid_mult
        per_op = cfg.osd_op_overhead * cfg.osd_bw
        seek = seek_mult * cfg.osd_seek_time * cfg.osd_bw
        # A different client breaking the stream also trashes the object's
        # readahead window (§IV-D: interleaved shared-file readers defeat
        # prefetching; private PLFS logs do not).
        waste = cfg.readahead_waste if is_read and client_id is not None else 0
        extra = inflate - 1.0
        for lane, obj_off, nbytes in stripe_lanes(offset, length, cfg.stripe_unit,
                                                  cfg.stripe_width):
            osd = osds[(file_uid + lane) % n_osds]
            if osd.down:
                osd._check_up()
            obj_uid = base + lane
            last_end = osd._last_end
            demand = float(nbytes) + per_op
            if last_end.get(obj_uid) != obj_off:
                osd.seeks += 1
                demand += seek
                if waste > 0 and osd._last_client.get(obj_uid, client_id) != client_id:
                    osd.stream_switches += 1
                    demand += waste
            if client_id is not None:
                osd._last_client[obj_uid] = client_id
            last_end[obj_uid] = obj_off + nbytes
            osd.requests += 1
            osd.bytes_moved += nbytes
            osd.server.serve(demand + extra * nbytes, join)

    @property
    def total_bytes_moved(self) -> int:
        """Payload bytes the pool has served (both directions)."""
        return sum(o.bytes_moved for o in self.osds)

    @property
    def total_seeks(self) -> int:
        """Non-sequential requests the pool has absorbed."""
        return sum(o.seeks for o in self.osds)
