"""Platform-preset sanity: the two testbeds match the paper's specs."""

from repro.cluster import CIELO, LANL64, Cluster, cielo, lanl64
from repro.sim import Engine


class TestPlatformPresets:
    def test_lanl64_matches_section_iv_c(self):
        """'64 nodes each with 16 AMD Opteron cores ... 32GB of memory ...
        10GigE storage network' and the 1.25 GB/s theoretical peak."""
        assert LANL64.n_nodes == 64
        assert LANL64.node.cores == 16
        assert LANL64.n_nodes * LANL64.node.cores == 1024
        assert LANL64.node.mem_bytes == 32 * (1 << 30)
        assert LANL64.storage_aggregate_bw == 1.25e9

    def test_cielo_matches_section_vi(self):
        """'8894 nodes and 142,304 compute cores'."""
        assert CIELO.n_nodes == 8894
        assert CIELO.n_nodes * CIELO.node.cores == 142_304
        # Cielo's storage aggregate dwarfs the small cluster's.
        assert CIELO.storage_aggregate_bw > 50 * LANL64.storage_aggregate_bw

    def test_factories_return_the_presets(self):
        assert lanl64() is LANL64
        assert cielo() is CIELO

    def test_cielo_cluster_buildable(self):
        env = Engine()
        c = Cluster(env, CIELO)
        assert len(c.nodes) == 8894
        # 65,536 ranks fit with block placement.
        assert c.nodes_used(65536) == 4096
        assert c.node_for_rank(65535, 65536).id == 4095

    def test_oversubscription_on_lanl64(self):
        """The paper's 2,048-stream runs oversubscribe 1,024 cores 2x."""
        env = Engine()
        c = Cluster(env, LANL64)
        assert c.node_for_rank(1024, 2048).id == 0  # wraps around
        assert c.nodes_used(2048) == 64
