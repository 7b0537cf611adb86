"""Nodes are built on first touch: a world's host memory follows the nodes
a job uses, not the platform's size (Cielo has 8,894 nodes)."""

import pytest

from repro.analysis.oracles import quick_invariants
from repro.cluster import CIELO, Cluster, ClusterSpec, cielo
from repro.harness.diagnostics import cache_report
from repro.harness.setup import build_world
from repro.sim import Engine
from repro.workloads import MPIIOTest, plfs_stack, run_workload


def built(world):
    return [node.id for node in world.cluster.nodes.built()]


@pytest.fixture(scope="module")
def cielo_512():
    """A Cielo world after a 512-rank write + cold read (16 ranks a node)."""
    world = build_world(cluster_spec=cielo(), n_volumes=2, federation="subdir",
                        aggregation="parallel")
    assert built(world) == []
    job = MPIIOTest(512, size_per_proc=64 * 1024, transfer=32 * 1024,
                    layout="strided")
    run_workload(world, job, plfs_stack(world), cold_read=True)
    return world


def test_a_cielo_world_builds_no_node():
    world = build_world(cluster_spec=cielo())
    assert len(world.cluster.nodes) == CIELO.n_nodes == 8894
    assert built(world) == []


def test_a_512_rank_job_builds_exactly_its_32_nodes(cielo_512):
    assert built(cielo_512) == list(range(32))


def test_inspections_build_no_node(cielo_512):
    cache_report(cielo_512)
    assert quick_invariants(cielo_512) == []
    cielo_512.drop_caches()
    assert built(cielo_512) == list(range(32))
    assert all(len(n.page_cache) == 0 for n in cielo_512.cluster.nodes.built())


def test_node_ids_behave_like_list_indices():
    nodes = Cluster(Engine(), ClusterSpec(name="t", n_nodes=4)).nodes
    assert nodes[3] is nodes[-1] and nodes[0] is nodes[0]
    with pytest.raises(IndexError):
        nodes[4]
    with pytest.raises(IndexError):
        nodes[-5]
    assert [n.id for n in nodes.built()] == [0, 3]
