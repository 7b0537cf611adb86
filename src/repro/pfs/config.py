"""Configuration of a simulated parallel file system.

One dataclass captures the handful of mechanisms that differentiate the
paper's three production file systems (GPFS, Lustre, PanFS) for the
workloads studied:

* **striping** — how a file's bytes spread over object storage devices;
* **write concurrency control** — block/extent/stripe ownership that
  serializes conflicting writers and charges revocation round-trips
  (GPFS tokens, Lustre extent locks, PanFS parity-stripe groups);
* **read-modify-write inflation** — partial-stripe writes that force the
  storage to read old data/parity before writing (PanFS RAID);
* **metadata service rates** — aggregate MDS throughput plus the lower
  single-directory ceiling that makes N-N create storms slow (§V);
* **client caching** — node page caches that let re-reads beat the
  storage network's theoretical peak (§IV-C).

Presets for the three file systems live in :mod:`repro.pfs.presets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigError
from ..units import KiB, MiB

__all__ = ["PfsConfig", "DEFAULT_OP_COSTS", "MD_CACHE_HIT_FACTOR", "RMW_FACTOR"]

# Relative metadata-op weights, in "op units"; an MDS rated at R ops/s
# retires R units per second.  Creates dominate (allocation + journaling),
# which is why the create phase of N-N is the §V bottleneck.
DEFAULT_OP_COSTS: Dict[str, float] = {
    "create": 1.0,
    "mkdir": 1.1,
    "open": 0.35,
    "close": 0.15,
    "stat": 0.25,
    "unlink": 0.7,
    "rmdir": 0.8,
    "readdir": 0.5,
    "rename": 0.9,
    "utime": 0.2,
}

# Fraction of a full open that a client metadata-cache hit costs.
MD_CACHE_HIT_FACTOR = 0.08

# OSD demand multiplier for a write that is not whole parity groups (when
# ``full_stripe`` enables RMW): read old data + read parity + write both back.
RMW_FACTOR = 4.0


@dataclass(frozen=True)
class PfsConfig:
    """Static parameters of one simulated parallel file system."""

    name: str = "pfs"

    # --- data layout ---
    n_osds: int = 16
    stripe_unit: int = 64 * KiB
    stripe_width: int = 8

    # --- OSD device model ---
    osd_bw: float = 120e6            # bytes/s streaming per OSD
    osd_seek_time: float = 4e-3      # seconds charged per non-sequential op
    osd_op_overhead: float = 150e-6  # per-request fixed device/server time
    # Readahead pollution: when a *different client's* read breaks an
    # object's stream, the prefetcher's in-flight window is wasted work.
    # Charged (in bytes) per such switch, on reads only.  This is §IV-D's
    # mechanism: N clients interleaving in one shared file defeat the
    # per-object readahead that N private PLFS logs enjoy.  0 disables.
    readahead_waste: int = 0

    # --- write concurrency control ---
    lock_block: int = 64 * KiB       # ownership granularity; 0 disables locking
    lock_revoke_time: float = 1.0e-3  # revocation round-trip when stealing a block
    lock_grant_time: float = 0.1e-3   # first-touch grant of an uncontended block

    # --- RAID read-modify-write (PanFS-style parity groups) ---
    full_stripe: int = 0             # bytes per parity group; 0 disables RMW logic

    # --- metadata service ---
    mds_ops_per_sec: float = 9000.0      # aggregate op-unit throughput of one MDS
    dir_ops_per_sec: float = 1400.0      # ceiling for mutations inside ONE directory
    mds_latency: float = 0.25e-3         # client<->MDS round-trip
    # Directory-size degradation: a mutation in a directory holding E
    # entries costs (1 + E / dir_degradation_entries) op units — huge flat
    # directories get superlinearly slow (the GIGA+ observation, §V).
    # 0 disables.
    dir_degradation_entries: int = 8000

    # --- client behaviour ---
    # Node page caches always serve hits, and read misses fill them.
    # Write-back buffering for sole-writer append streams: tiny sequential
    # writes (PLFS data logs, N-N files) absorb into the client cache and
    # flush to storage in chunks of this size.  Multi-writer shared files
    # never qualify — their consistency traffic forces write-through,
    # which is precisely the N-1 penalty (§II).  0 disables.
    writeback_bytes: int = 4 * MiB
    # Client metadata caching: re-opening a file some rank on the same node
    # already opened costs MD_CACHE_HIT_FACTOR of a full open (attribute
    # caches in PanFS/Lustre/GPFS clients all behave this way).  It is what
    # keeps the Original index-read design merely ~4x slower at scale
    # (Fig. 4a) instead of catastrophically N^2.
    md_client_cache: bool = True

    op_costs: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_OP_COSTS))

    def __post_init__(self) -> None:
        if self.n_osds < 1:
            raise ConfigError("need at least one OSD")
        if self.stripe_width < 1:
            raise ConfigError(f"stripe_width {self.stripe_width} must be >= 1")
        if self.stripe_width > self.n_osds:
            # A file's stripe components sit on distinct devices.
            raise ConfigError(f"stripe_width {self.stripe_width} exceeds "
                              f"n_osds {self.n_osds}")
        if self.stripe_unit <= 0:
            raise ConfigError("stripe_unit must be positive")
        if self.osd_bw <= 0 or self.mds_ops_per_sec <= 0 or self.dir_ops_per_sec <= 0:
            raise ConfigError("rates must be positive")
        if self.lock_block < 0 or self.lock_revoke_time < 0 or self.lock_grant_time < 0:
            raise ConfigError("lock parameters must be non-negative")
        if self.full_stripe < 0:
            raise ConfigError("full_stripe must be >= 0")
        missing = set(DEFAULT_OP_COSTS) - set(self.op_costs)
        if missing:
            raise ConfigError(f"op_costs missing {sorted(missing)}")
