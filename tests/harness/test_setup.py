"""Tests for world assembly (the harness's build_world wiring)."""

import pytest

from repro.harness.setup import World, build_world
from repro.mpi import run_job
from repro.cluster import CIELO, cielo
from repro.pfs import lustre
from repro.plfs import PlfsConfig


class TestBuildWorld:
    def test_defaults(self):
        w = build_world()
        assert isinstance(w, World)
        assert len(w.volumes) == 1
        assert w.volume is w.volumes[0]
        assert w.mount.cfg.aggregation == "parallel"

    def test_inode_uids_restart_in_every_world(self):
        """Uids place file lanes on OSDs, so a world's uids must not depend
        on how many worlds this process built before it."""
        def first_file_uid():
            w = build_world(n_volumes=2)

            def fn(ctx):
                fh = yield from w.volume.open(ctx.client, "/f", "w", create=True)
                yield from fh.close()

            run_job(w.env, w.cluster, 1, fn)
            # Federated volumes share the pool, so their uids never collide.
            assert w.volumes[0].ns.root.uid != w.volumes[1].ns.root.uid
            return w.volume.ns.resolve("/f").uid

        assert first_file_uid() == first_file_uid()

    def test_federated_volumes_share_physical_storage(self):
        w = build_world(n_volumes=4, federation="container")
        pools = {id(v.pool) for v in w.volumes}
        locks = {id(v.locks) for v in w.volumes}
        assert pools == {id(w.volume.pool)}
        assert locks == {id(w.volume.locks)}
        # ...but each volume has its own metadata server.
        assert len({id(v.mds) for v in w.volumes}) == 4

    def test_plfs_kwargs_forwarded(self):
        w = build_world(aggregation="flatten", n_subdirs=8)
        assert w.mount.cfg.aggregation == "flatten"
        assert w.mount.cfg.n_subdirs == 8

    def test_explicit_plfs_cfg_wins(self):
        cfg = PlfsConfig(aggregation="original")
        w = build_world(plfs_cfg=cfg)
        assert w.mount.cfg is cfg

    def test_pfs_cfg_applied_to_all_volumes(self):
        w = build_world(n_volumes=3, federation="subdir", pfs_cfg=lustre())
        assert all(v.cfg.name == "lustre" for v in w.volumes)

    def test_cluster_spec_applied(self):
        w = build_world(cluster_spec=cielo())
        assert w.cluster.spec is CIELO
        assert len(w.cluster.nodes) == CIELO.n_nodes

    def test_drop_caches_clears_everything(self):
        w = build_world(n_volumes=2, federation="container")
        w.cluster.nodes[0].page_cache.insert(1, 0, 1 << 20)
        w.volumes[1]._md_cache.add((0, 1))
        w.drop_caches()
        assert len(w.cluster.nodes[0].page_cache) == 0
        assert not w.volumes[1]._md_cache
