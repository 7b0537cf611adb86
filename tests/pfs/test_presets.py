"""Invariants of the file-system presets (the §III portability models)."""

import pytest

from repro.pfs.presets import PRESETS, gpfs, lustre, panfs, panfs_cielo, preset


class TestPresets:
    @pytest.mark.parametrize("factory", [panfs, lustre, gpfs, panfs_cielo])
    def test_constructible_and_consistent(self, factory):
        cfg = factory()
        assert cfg.stripe_width <= cfg.n_osds
        assert cfg.osd_bw > 0
        assert cfg.mds_ops_per_sec > cfg.dir_ops_per_sec  # dir ceiling is lower

    def test_panfs_models_client_raid(self):
        cfg = panfs()
        assert cfg.full_stripe > 0  # partial parity groups pay RMW
        assert cfg.full_stripe == 8 * cfg.stripe_unit  # an 8+1 parity group
        assert cfg.lock_block == cfg.full_stripe

    def test_lustre_and_gpfs_have_no_client_raid(self):
        assert lustre().full_stripe == 0
        assert gpfs().full_stripe == 0

    def test_lock_granularities_differ(self):
        # Lustre's extent locks are the coarsest; GPFS tokens block-sized.
        assert lustre().lock_block > gpfs().lock_block
        assert gpfs().lock_block > 0

    def test_all_presets_model_readahead_pollution(self):
        for factory in (panfs, lustre, gpfs):
            assert factory().readahead_waste > 0

    def test_cielo_is_a_bigger_panfs(self):
        small, big = panfs(), panfs_cielo()
        assert big.n_osds > small.n_osds
        assert big.full_stripe == small.full_stripe  # same mechanisms

    def test_overrides_apply(self):
        cfg = panfs(n_osds=100, osd_bw=1.0)
        assert cfg.n_osds == 100 and cfg.osd_bw == 1.0

    def test_lookup_by_name(self):
        assert preset("lustre").name == "lustre"
        assert set(PRESETS) == {"panfs", "lustre", "gpfs", "panfs_cielo"}
        with pytest.raises(KeyError):
            preset("zfs")
