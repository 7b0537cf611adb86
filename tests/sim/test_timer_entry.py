"""Every fair-share completion timer is armed through ``Engine.schedule_at``.

``FairShareServer`` inlines its per-job bookkeeping, including the timer
arm.  Instruments count timers by wrapping ``schedule_at`` (perfbench's
``sim.timers``, ``bench_engine.py::test_striped_fanout``), so a timer made
any other way would go uncounted.  Each armed timer fires exactly once,
and its only callback is the server's ``_on_timer``; so over a run that
drains, the two counts are equal exactly when every arm went through
``schedule_at``.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, cielo
from repro.harness.setup import build_world
from repro.pfs.osd import OsdPool
from repro.pfs.presets import panfs_cielo
from repro.sim import Engine, FairShareServer, Join
from repro.workloads import nn_metadata_storm


@pytest.fixture
def timer_counts(monkeypatch):
    """Count ``_on_timer`` calls on every server; ``attach(env)`` also
    counts ``schedule_at`` on that engine instance."""
    counts = {"schedule_at": 0, "on_timer": 0}
    on_timer = FairShareServer._on_timer

    def counted_on_timer(self, timer):
        counts["on_timer"] += 1
        on_timer(self, timer)

    monkeypatch.setattr(FairShareServer, "_on_timer", counted_on_timer)

    def attach(env):
        schedule_at = env.schedule_at

        def counted_schedule_at(t):
            counts["schedule_at"] += 1
            return schedule_at(t)

        env.schedule_at = counted_schedule_at

    counts["attach"] = attach
    return counts


def test_striped_fanout_arms_every_timer_through_schedule_at(timer_counts):
    """Striped reads: OSD lanes, storage NICs and the pipe, one join each."""
    env = Engine()
    cluster = Cluster(env, ClusterSpec(name="fanout", n_nodes=16,
                                       node=NodeSpec(cores=16)))
    cfg = panfs_cielo()
    pool = OsdPool(env, cfg)
    timer_counts["attach"](env)

    def client(env, i):
        nbytes = (1 + i % 3) * cfg.stripe_unit * cfg.stripe_width // 2
        join = Join(env)
        pool.io_events(i % 5, (i // 5) * nbytes, nbytes, join,
                       client_id=i, is_read=True)
        cluster.storage_net.path_events(cluster.nodes[i % 16], nbytes, join)
        yield join

    for i in range(200):
        env.process(client(env, i))
    env.run()
    assert timer_counts["schedule_at"] > 100
    assert timer_counts["schedule_at"] == timer_counts["on_timer"]


def test_metadata_storm_arms_every_timer_through_schedule_at(timer_counts):
    """An N-N create storm over 10 federated MDSes (the MDS ``serve`` path)."""
    world = build_world(cluster_spec=cielo(), pfs_cfg=panfs_cielo(),
                        n_volumes=10, federation="container")
    timer_counts["attach"](world.env)
    nn_metadata_storm(world, 256, 1, "plfs")
    assert timer_counts["schedule_at"] > 256
    assert timer_counts["schedule_at"] == timer_counts["on_timer"]
