"""Parameter presets for the paper's three underlying parallel file systems.

The paper's portability claim (§I, §III) is that PLFS's transformation wins
on GPFS, Lustre, and PanFS alike, because all three serialize concurrent
writes into one shared object — just through different mechanisms.  The
presets encode those mechanisms; absolute rates are representative
2012-era hardware (enough for shape fidelity, which is the reproduction
target — see DESIGN.md §2).

* **PanFS** — the paper's testbed.  Client-driven RAID: a partial parity
  group forces read-modify-write and parity-group serialization.
* **Lustre** — server-side extent locks at coarse granularity; stealing an
  extent from another writer is a revocation round-trip.
* **GPFS** — distributed byte-range tokens at whole-block granularity;
  token steals are cheaper than Lustre revocations but block-size false
  sharing is just as real.
"""

from __future__ import annotations

from ..units import KiB, MiB
from .config import PfsConfig

__all__ = ["panfs", "lustre", "gpfs", "panfs_cielo", "PRESETS", "preset"]


def panfs(**overrides) -> PfsConfig:
    """PanFS-like: 8+1 client RAID, parity-group RMW (the paper's testbed)."""
    params = dict(
        name="panfs",
        n_osds=24,
        stripe_unit=64 * KiB,
        # Placement breadth: PanFS lays parity groups across many blades, so
        # a large file engages most of the system even though each parity
        # stripe is 8+1 (full_stripe below stays one parity group).
        stripe_width=16,
        osd_bw=110e6,
        osd_seek_time=2.5e-3,
        osd_op_overhead=150e-6,
        readahead_waste=256 * KiB,    # prefetch window trashed per stream switch
        lock_block=8 * 64 * KiB,      # one parity group
        lock_revoke_time=1.5e-3,
        lock_grant_time=0.1e-3,
        full_stripe=8 * 64 * KiB,     # partial groups pay RMW_FACTOR
        mds_ops_per_sec=9000.0,
        dir_ops_per_sec=1400.0,
        mds_latency=0.25e-3,
    )
    params.update(overrides)
    return PfsConfig(**params)


def lustre(**overrides) -> PfsConfig:
    """Lustre-like: coarse server extent locks, no client RAID."""
    params = dict(
        name="lustre",
        n_osds=16,
        stripe_unit=1 * MiB,
        stripe_width=4,
        osd_bw=160e6,
        osd_seek_time=5e-3,
        osd_op_overhead=120e-6,
        readahead_waste=256 * KiB,
        lock_block=1 * MiB,
        lock_revoke_time=1.6e-3,
        lock_grant_time=0.15e-3,
        full_stripe=0,
        mds_ops_per_sec=12000.0,
        dir_ops_per_sec=1800.0,
        mds_latency=0.2e-3,
    )
    params.update(overrides)
    return PfsConfig(**params)


def gpfs(**overrides) -> PfsConfig:
    """GPFS-like: wide striping, distributed whole-block write tokens."""
    params = dict(
        name="gpfs",
        n_osds=16,
        stripe_unit=256 * KiB,
        stripe_width=16,
        osd_bw=140e6,
        osd_seek_time=4.5e-3,
        osd_op_overhead=130e-6,
        readahead_waste=256 * KiB,
        lock_block=256 * KiB,
        lock_revoke_time=1.1e-3,
        lock_grant_time=0.12e-3,
        full_stripe=0,
        mds_ops_per_sec=10000.0,
        dir_ops_per_sec=1500.0,
        mds_latency=0.22e-3,
    )
    params.update(overrides)
    return PfsConfig(**params)


def panfs_cielo(**overrides) -> PfsConfig:
    """The 10 PB Panasas system attached to Cielo (§VI): same mechanisms as
    :func:`panfs`, sized up to hundreds of storage blades."""
    params = dict(
        n_osds=480,
        mds_ops_per_sec=12000.0,
        dir_ops_per_sec=1600.0,
    )
    params.update(overrides)
    return panfs(**params)


PRESETS = {"panfs": panfs, "lustre": lustre, "gpfs": gpfs,
           "panfs_cielo": panfs_cielo}


def preset(name: str, **overrides) -> PfsConfig:
    """Look up a preset by name ('panfs' | 'lustre' | 'gpfs' | 'panfs_cielo')."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown PFS preset {name!r}; choose from {sorted(PRESETS)}") from None
    return factory(**overrides)
