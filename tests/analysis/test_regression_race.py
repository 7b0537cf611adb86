"""The sanitizer must catch the pre-PR-2 last-closer registry race.

PR 2 fixed ``PlfsWriteHandle._drop_metadata``: the original decremented
the host refcount, saw zero, *yielded* on the metadata-dropping ops, and
only then deleted the registry entry — clobbering a writer that
re-opened the container on the same host in between.  These tests
re-introduce that exact sequence (lifted from the pre-fix revision)
under the sanitizer and assert it is reported, while the shipped close
path runs the same overlaps cleanly.

The racy window is only a few metadata ops wide, so the driver first
*measures* it (the simulation is deterministic: identical worlds give
identical timings) and then scans the re-opener's start time across the
window at half-window steps — the re-open is guaranteed to land inside
it at some step.  The racy close must be flagged at one of those
delays; the shipped close at none of them.
"""

import pytest

from repro.analysis.sanitize import sanitizer_of
from repro.errors import RaceConditionError
from repro.harness.setup import build_world
from repro.pfs.data import ZeroData
from repro.pfs.volume import Client
from repro.plfs.container import meta_dropping_name, openhost_name
from repro.plfs.writer import PlfsWriteHandle, _host_registry

# (zero-check time, retire time) pairs recorded by _racy_drop_metadata.
_window_log = []


def _racy_drop_metadata(self):
    """Pre-PR-2 close bookkeeping: zero-check and retire span yields."""
    home = self.layout.home_volume
    client = self.client
    node_id = client.node.id
    reg = _host_registry(home)
    entry = reg[(self.layout.path, node_id)]
    entry[0] -= 1
    entry[1] = max(entry[1], self.eof)
    entry[2] += len(self.index)
    if entry[0] == 0:
        t_check = self.env.now
        name = meta_dropping_name(entry[1], entry[2], node_id, 0)
        meta = yield from home.open(client, f"{self.layout.meta_path}/{name}",
                                    "w", create=True)
        yield from meta.close()
        oh_path = f"{self.layout.openhosts_path}/{openhost_name(node_id)}"
        yield from home.unlink(client, oh_path)
        _window_log.append((t_check, self.env.now))
        del reg[(self.layout.path, node_id)]   # acts on the stale zero-check


def _sanitized_world():
    return build_world(instrument="sanitize")


def _measure_window(monkeypatch):
    """Time the racy close of a lone writer: returns (t_close_start,
    t_zero_check, t_retire) in simulated seconds."""
    monkeypatch.setattr(PlfsWriteHandle, "_drop_metadata",
                        _racy_drop_metadata)
    world = _sanitized_world()
    env, mount = world.env, world.mount
    client = Client(node=world.cluster.nodes[0], client_id=0)
    marks = []

    def scenario(env):
        h = yield from mount.open_write(client, "/ckpt")
        yield from h.write(0, ZeroData(4096))
        marks.append(env.now)
        yield from mount.close_write(h)

    _window_log.clear()
    env.process(scenario(env), "scenario")
    env.run()
    assert len(_window_log) == 1, "lone close must enter the racy window once"
    (t_check, t_del), = _window_log
    return marks[0], t_check, t_del


def _run_overlap(delay):
    """One sanitized world: close a host's only writer while a second
    writer on the same host starts re-opening *delay* seconds after the
    close begins.  Returns the recorded conflicts."""
    world = _sanitized_world()
    env, mount = world.env, world.mount
    node = world.cluster.nodes[0]
    first = Client(node=node, client_id=0)
    second = Client(node=node, client_id=1)

    def closer(env, handle):
        yield from mount.close_write(handle)

    def reopener(env):
        yield env.timeout(delay)
        h2 = yield from mount.open_write(second, "/ckpt")
        yield from h2.write(4096, ZeroData(4096))
        yield from mount.close_write(h2)

    def scenario(env):
        h1 = yield from mount.open_write(first, "/ckpt")
        yield from h1.write(0, ZeroData(4096))
        env.process(closer(env, h1), "closer")
        env.process(reopener(env), "reopener")

    env.process(scenario(env), "scenario")
    try:
        env.run()
    except RaceConditionError:
        pass  # strict mode stops the run at the offending write
    return sanitizer_of(env).conflicts


def _scan_delays(monkeypatch):
    """Re-opener start offsets stepping through the measured racy window."""
    t0, t_check, t_del = _measure_window(monkeypatch)
    width = t_del - t_check
    assert width > 0, "racy metadata window must take simulated time"
    step = width / 2
    delays, d = [], 0.0
    while d <= (t_del - t0) + width:
        delays.append(d)
        d += step
    return delays


def test_sanitizer_detects_reintroduced_last_closer_race(monkeypatch):
    delays = _scan_delays(monkeypatch)
    monkeypatch.setattr(PlfsWriteHandle, "_drop_metadata",
                        _racy_drop_metadata)
    for delay in delays:
        conflicts = _run_overlap(delay)
        if conflicts:
            c = conflicts[0]
            assert c.container.startswith("plfs-host-refs")
            assert c.kind in ("lost-update", "stale-read")
            assert c.read_epoch < c.write_epoch
            return
    pytest.fail("racy _drop_metadata escaped the sanitizer at every "
                f"re-open delay in {delays}")


def test_shipped_close_path_is_race_free(monkeypatch):
    delays = _scan_delays(monkeypatch)
    monkeypatch.undo()   # drop the racy patch; keep scanning the window
    for delay in delays:
        conflicts = _run_overlap(delay)
        assert conflicts == [], (
            f"shipped close path flagged at re-open delay {delay}: "
            f"{[c.render() for c in conflicts]}")
