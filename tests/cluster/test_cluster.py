"""Unit tests for nodes, page caches, networks, and cluster assembly."""

import pytest

from repro.cluster import (
    CIELO,
    LANL64,
    Cluster,
    ClusterSpec,
    Interconnect,
    NodeSpec,
    PageCache,
    StorageNetwork,
)
from repro.errors import ConfigError
from repro.sim import Engine, Join
from repro.units import MiB


class TestNodeSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NodeSpec(cores=0)
        with pytest.raises(ConfigError):
            NodeSpec(mem_bytes=0)
        with pytest.raises(ConfigError):
            NodeSpec(cache_fraction=1.5)


class TestPageCache:
    def test_insert_and_hit(self):
        pc = PageCache(capacity_bytes=10 * MiB, block_size=MiB)
        pc.insert(1, 0, 2 * MiB)
        assert pc.hit_bytes(1, 0, 2 * MiB) == 2 * MiB
        assert pc.hit_bytes(2, 0, MiB) == 0

    def test_partial_block_hit(self):
        pc = PageCache(capacity_bytes=10 * MiB, block_size=MiB)
        pc.insert(1, 0, MiB)
        # Request straddling cached block 0 and uncached block 1.
        assert pc.hit_bytes(1, 512 * 1024, MiB) == 512 * 1024

    def test_missed_runs_are_the_absent_blocks(self):
        pc = PageCache(capacity_bytes=10 * MiB, block_size=MiB)
        pc.insert(1, MiB, MiB)     # block 1
        pc.insert(1, 3 * MiB, MiB)  # block 3
        missed = []
        # Blocks 0..4 from mid-block 0 to mid-block 4: 0, 2 and 4 miss.
        hit = pc.hit_bytes(1, MiB // 2, 4 * MiB, missed)
        assert hit == 2 * MiB
        assert missed == [(MiB // 2, MiB // 2), (2 * MiB, MiB),
                          (4 * MiB, MiB // 2)]
        missed = []
        assert pc.hit_bytes(2, 100, 50, missed) == 0
        assert missed == [(100, 50)]

    def test_full_blocks_only_insert(self):
        pc = PageCache(capacity_bytes=10 * MiB, block_size=MiB)
        pc.insert(1, 0, MiB + 1, full_blocks_only=True)  # covers block 0 only
        assert pc.hit_bytes(1, 0, MiB) == MiB
        assert pc.hit_bytes(1, MiB, MiB) == 0
        pc.insert(2, 100, 100, full_blocks_only=True)  # covers nothing fully
        assert pc.hit_bytes(2, 100, 100) == 0

    def test_lru_eviction(self):
        pc = PageCache(capacity_bytes=3 * MiB, block_size=MiB)
        pc.insert(1, 0, 3 * MiB)           # blocks 0,1,2
        pc.hit_bytes(1, 0, MiB)            # touch block 0 (now MRU)
        pc.insert(1, 3 * MiB, MiB)         # evicts LRU = block 1
        assert pc.hit_bytes(1, 0, MiB) == MiB
        assert pc.hit_bytes(1, MiB, MiB) == 0
        assert pc.evictions == 1

    def test_zero_capacity_never_caches(self):
        pc = PageCache(capacity_bytes=0)
        pc.insert(1, 0, MiB)
        assert pc.hit_bytes(1, 0, MiB) == 0

    def test_zero_capacity_counts_a_miss_per_block(self):
        pc = PageCache(capacity_bytes=0, block_size=MiB)
        assert pc.hit_bytes(1, MiB // 2, 3 * MiB) == 0  # spans blocks 0..3
        assert (pc.hits, pc.misses, len(pc)) == (0, 4, 0)


class TestNetworks:
    def make(self, n_nodes=4):
        env = Engine()
        cluster = Cluster(env, ClusterSpec(name="t", n_nodes=n_nodes))
        return env, cluster

    def test_interconnect_transfer_time(self):
        env, cluster = self.make()
        ic = cluster.interconnect

        def proc(env):
            yield from ic.transfer(cluster.nodes[0], cluster.nodes[1], 32_000_000)
            return env.now

        t = env.run_process(proc(env))
        assert t == pytest.approx(2e-6 + 32_000_000 / 3.2e9, rel=0.01)

    def test_intra_node_transfer_uses_memory(self):
        env, cluster = self.make()
        ic = cluster.interconnect

        def proc(env):
            yield from ic.transfer(cluster.nodes[0], cluster.nodes[0], 8_000_000)
            return env.now

        t = env.run_process(proc(env))
        assert t == pytest.approx(0.5e-6 + 8_000_000 / 8e9, rel=0.01)

    def test_nic_contention_shares_bandwidth(self):
        env, cluster = self.make()
        ic = cluster.interconnect
        ends = []

        def proc(env, dst):
            yield from ic.transfer(cluster.nodes[0], cluster.nodes[dst], 32_000_000)
            ends.append(env.now)

        env.process(proc(env, 1))
        env.process(proc(env, 2))
        env.run()
        # Two flows share node 0's out-NIC: each takes ~2x the solo time.
        assert all(t == pytest.approx(2 * 32_000_000 / 3.2e9, rel=0.05) for t in ends)

    def test_storage_pipe_is_shared(self):
        env, cluster = self.make()
        sn = cluster.storage_net
        ends = []

        def proc(env, node):
            join = Join(env)
            sn.path_events(cluster.nodes[node], 125_000_000, join)
            yield join
            ends.append(env.now)

        env.process(proc(env, 0))
        env.process(proc(env, 1))
        env.run()
        # Aggregate 1.25 GB/s; two concurrent 125 MB flows -> ~0.2s each.
        assert all(t == pytest.approx(0.2, rel=0.05) for t in ends)

    def test_negative_transfer_rejected(self):
        env, cluster = self.make()
        with pytest.raises(ConfigError):
            list(cluster.interconnect.transfer(cluster.nodes[0], cluster.nodes[1], -1))


class TestClusterTopology:
    def test_block_placement(self):
        env = Engine()
        c = Cluster(env, ClusterSpec(name="t", n_nodes=4, node=NodeSpec(cores=4)))
        assert c.node_for_rank(0, 16).id == 0
        assert c.node_for_rank(3, 16).id == 0
        assert c.node_for_rank(4, 16).id == 1
        assert c.node_for_rank(15, 16).id == 3

    def test_oversubscription_wraps(self):
        env = Engine()
        c = Cluster(env, ClusterSpec(name="t", n_nodes=2, node=NodeSpec(cores=2)))
        # 8 ranks on 4 cores: ranks 4..5 wrap to node 0.
        assert c.node_for_rank(4, 8).id == 0
        assert c.nodes_used(8) == 2

    def test_rank_range_checked(self):
        env = Engine()
        c = Cluster(env, ClusterSpec(name="t", n_nodes=2))
        with pytest.raises(ConfigError):
            c.node_for_rank(99, 10)

    def test_negative_storage_latency_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSpec(name="t", n_nodes=1, storage_latency=-1e-6)

    def test_presets(self):
        assert LANL64.n_nodes * LANL64.node.cores == 1024
        assert CIELO.n_nodes == 8894
        assert CIELO.n_nodes * CIELO.node.cores == 142_304
        env = Engine()
        c = Cluster(env, LANL64)
        assert len(c.nodes) == 64
        assert c.nodes_used(2048) == 64  # oversubscribed, all nodes busy
