"""Recovery verifier: after a crash, prove every surviving acked byte.

The contract under test is PLFS's crash semantics (§II / the container
model): a writer that dies without closing leaves an openhost mark, data
appended since its last index spill is unreachable, and ``plfs_recover``
must make the container consistent again with every *surviving*
acknowledged write readable byte-identically.  The verifier runs the real
tool chain — ``plfs_check`` (expects dirt), ``plfs_recover``, then an
independent read of **every** acknowledged write compared through
:class:`~repro.pfs.data.DataSpec` structural equality — no spot checks.

Each acked write must come back in exactly one of two states:

* **surviving** — reads back byte-identical to what was acknowledged;
* **lost** — reads as a hole (zeros) or beyond EOF: the unspilled tail of
  a killed writer, which PLFS legitimately cannot recover.

Anything else (garbage, torn content, another writer's bytes where they
don't belong) is counted ``mismatched`` and fails the report.  The same
verifier runs against the direct-PFS stack, where in-place writes mean
every acknowledged byte must survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..pfs.data import DataSpec, ZeroData
from ..pfs.volume import Client
from ..plfs.tools import plfs_check, plfs_recover
from ..workloads.base import make_stack

__all__ = ["AckedWrite", "RecoveryReport", "verify_recovery"]

_VERIFY_CLIENT_BASE = 9_900_000  # far from any job's client_id range


@dataclass(frozen=True)
class AckedWrite:
    """One write whose completion was acknowledged to the application."""

    rank: int
    offset: int
    spec: DataSpec


@dataclass
class RecoveryReport:
    """Outcome of one post-crash verification pass."""

    path: str
    stack: str
    acked_bytes: int = 0
    surviving_bytes: int = 0
    lost_bytes: int = 0
    mismatched_bytes: int = 0
    n_acked: int = 0
    n_lost: int = 0
    dirty_hosts_before: int = 0
    clean_after: bool = True

    @property
    def recovered_fraction(self) -> float:
        """Acked bytes that read back intact after recovery."""
        return self.surviving_bytes / self.acked_bytes if self.acked_bytes else 1.0

    @property
    def ok(self) -> bool:
        """True when nothing read back as garbage and recovery left no dirt."""
        return self.mismatched_bytes == 0 and self.clean_after


def _classify(report: RecoveryReport, write: AckedWrite, view) -> None:
    n = write.spec.length
    report.n_acked += 1
    report.acked_bytes += n
    if view.length == n and view.content_equal(write.spec):
        report.surviving_bytes += n
    elif view.length < n or view.content_equal(ZeroData(view.length)):
        # Beyond recovered EOF, or a hole: the legitimately lost tail.
        report.n_lost += 1
        report.lost_bytes += n
    else:
        report.mismatched_bytes += n


def verify_recovery(world, stack_name: str, path: str,
                    acked: Sequence[AckedWrite]) -> RecoveryReport:
    """Check + recover (PLFS) then read back every acked write.

    Runs as its own simulated process (charged time, like the admin's
    fsck-plus-validation pass it models).  Returns a
    :class:`RecoveryReport`; callers assert on ``ok`` and read
    ``recovered_fraction`` into the resilience figure.
    """
    report = RecoveryReport(path=path, stack=stack_name)
    client = Client(node=world.cluster.nodes[0], client_id=_VERIFY_CLIENT_BASE)
    world.drop_caches()
    driver = make_stack(stack_name, world)

    def verify():
        if stack_name == "plfs":
            layout = world.mount.layout(path)
            check = yield from plfs_check(layout, client)
            report.dirty_hosts_before = len(check.dirty_hosts)
            post = yield from plfs_recover(layout, client)
            report.clean_after = post.clean
            world.mount.invalidate_index_cache()
        fh = yield from driver.open(client, None, path, "r")
        for w in acked:
            view = yield from driver.read_at(fh, w.offset, w.spec.length)
            _classify(report, w, view)
        yield from driver.close(fh, None)

    world.env.run_process(verify(), name="verify-recovery")
    return report
