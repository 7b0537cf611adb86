"""Container inspection and recovery utilities.

Real PLFS ships ``plfs_map`` (dump a file's logical→physical map) and
administrators routinely need to check and repair containers after jobs
die mid-checkpoint.  These are the equivalents:

* :func:`plfs_map` — the resolved extent map of a logical file;
* :func:`plfs_check` — integrity report: dirty openhost marks (crashed
  writers), data logs with no index coverage (unreachable tail bytes),
  index records pointing past their data logs, stat/metadata drift;
* :func:`plfs_recover` — rebuild the metadata droppings from the index
  logs and clear stale openhost marks, making a crashed-but-spilled
  container fully consistent again (what an admin runs before a restart).

All are charged simulated time like any other client activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Tuple

from ..errors import FileNotFound
from ..pfs.extents import HOLE
from ..pfs.volume import Client
from .aggregation import list_index_logs, merge_index_logs, read_index_logs
from .container import ContainerLayout, meta_dropping_name, parse_meta_dropping

__all__ = ["MapEntry", "CheckReport", "plfs_map", "plfs_check", "plfs_recover"]

MapEntry = Tuple[int, int, int, int]  # (logical_start, logical_end, writer, physical)


@dataclass
class CheckReport:
    """Outcome of :func:`plfs_check`."""

    path: str
    n_writers: int = 0
    n_index_records: int = 0
    logical_size: int = 0
    meta_size: int = 0
    dirty_hosts: List[int] = field(default_factory=list)
    unindexed_bytes: int = 0          # data-log tail bytes no index covers
    dangling_records: int = 0         # index records past their data log
    warnings: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.dirty_hosts or self.dangling_records
                    or self.meta_size != self.logical_size or self.warnings)


def _build_index(layout: ContainerLayout, client: Client) -> Generator:
    entries, _ = yield from list_index_logs(layout, client)
    logs, _ = yield from read_index_logs(client, entries)
    return merge_index_logs(logs)


def plfs_map(layout: ContainerLayout, client: Client) -> Generator:
    """The resolved logical→physical map of a container (like plfs_map)."""
    if not layout.exists():
        raise FileNotFound(layout.path)
    gi = yield from _build_index(layout, client)
    out: List[MapEntry] = []
    for s, e, writer, phys in gi.flatten().query(0, gi.logical_size):
        if writer != HOLE:
            out.append((s, e, writer, phys))
    return out


def plfs_check(layout: ContainerLayout, client: Client) -> Generator:
    """Audit a container; returns a :class:`CheckReport`."""
    if not layout.exists():
        raise FileNotFound(layout.path)
    home = layout.home_volume
    report = CheckReport(path=layout.path)

    # Crashed writers leave openhost marks behind.
    hosts = yield from home.readdir(client, layout.openhosts_path)
    for name in hosts:
        try:
            report.dirty_hosts.append(int(name.split(".")[1]))
        except (IndexError, ValueError):
            report.warnings.append(f"malformed openhost entry {name!r}")

    gi = yield from _build_index(layout, client)
    report.n_writers = len(gi.writers)
    report.n_index_records = len(gi)
    report.logical_size = gi.logical_size

    # Per-writer: compare indexed coverage against the data log's size.
    per_writer_end = {}
    for _start, length, src_off, _stamp, w, _pad in gi.journal.records():
        per_writer_end[w] = max(per_writer_end.get(w, 0), src_off + length)
    for writer, node_id in sorted(gi.writers.items()):
        vol = layout.subdir_volume(layout.subdir_for_writer(node_id))
        log = vol.ns.try_resolve(layout.data_log_path(node_id, writer))
        if log is None:
            report.warnings.append(f"index references missing data log of writer {writer}")
            continue
        indexed = per_writer_end.get(writer, 0)
        if log.data.size > indexed:
            report.unindexed_bytes += log.data.size - indexed
        elif log.data.size < indexed:
            report.dangling_records += 1

    # Metadata droppings vs the real index.
    names = yield from home.readdir(client, layout.meta_path)
    for name in names:
        eof, _, _, _ = parse_meta_dropping(name)
        report.meta_size = max(report.meta_size, eof)
    return report


def plfs_recover(layout: ContainerLayout, client: Client) -> Generator:
    """Repair a container after writer crashes (cf. an fsck for PLFS).

    Rebuilds one metadata dropping from the true index contents, drops the
    stale per-host droppings, and clears leftover openhost marks.  Data
    that was never indexed (appended after the writer's last index spill)
    stays unreachable — PLFS cannot invent the missing offsets — but the
    container becomes consistent: stat, check, and readers all agree.
    Returns the post-recovery :class:`CheckReport`.
    """
    if not layout.exists():
        raise FileNotFound(layout.path)
    home = layout.home_volume
    gi = yield from _build_index(layout, client)

    # Clear stale openhost marks (and any in-memory refcounts).
    hosts = yield from home.readdir(client, layout.openhosts_path)
    for name in hosts:
        yield from home.unlink(client, f"{layout.openhosts_path}/{name}")
    reg = getattr(home, "_plfs_host_refs", None)
    if reg:
        for key in [k for k in reg if k[0] == layout.path]:
            del reg[key]

    # Replace the metadata droppings with one rebuilt from the index.
    names = yield from home.readdir(client, layout.meta_path)
    for name in names:
        yield from home.unlink(client, f"{layout.meta_path}/{name}")
    rebuilt = meta_dropping_name(gi.logical_size, len(gi), 0, 0)
    fh = yield from home.open(client, f"{layout.meta_path}/{rebuilt}", "w",
                              create=True)
    yield from fh.close()

    report = yield from plfs_check(layout, client)
    return report
