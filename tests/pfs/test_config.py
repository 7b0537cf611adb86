"""Validation tests for model configurations."""

import pytest

from repro.errors import ConfigError
from repro.pfs.config import DEFAULT_OP_COSTS, PfsConfig
from repro.plfs.config import PlfsConfig


class TestPfsConfigValidation:
    def test_defaults_valid(self):
        cfg = PfsConfig()
        assert cfg.stripe_width <= cfg.n_osds

    @pytest.mark.parametrize("kw", [
        dict(n_osds=0),
        dict(stripe_width=0),
        dict(stripe_unit=0),
        dict(osd_bw=0),
        dict(mds_ops_per_sec=0),
        dict(dir_ops_per_sec=-1),
        dict(lock_block=-1),
        dict(lock_revoke_time=-1),
        dict(n_osds=4, stripe_width=8),  # a stripe may not wrap the pool
        dict(full_stripe=-1),
    ])
    def test_bad_parameters_rejected(self, kw):
        with pytest.raises(ConfigError):
            PfsConfig(**kw)

    def test_wide_stripe_allowed(self):
        # The widest stripe spans the whole pool, one lane per OSD.
        cfg = PfsConfig(n_osds=4, stripe_width=4)
        assert cfg.stripe_width == cfg.n_osds == 4

    def test_op_costs_must_be_complete(self):
        with pytest.raises(ConfigError, match="op_costs missing"):
            PfsConfig(op_costs={"open": 1.0})

    def test_op_costs_extensible(self):
        costs = dict(DEFAULT_OP_COSTS)
        costs["custom"] = 2.0
        assert PfsConfig(op_costs=costs).op_costs["custom"] == 2.0

    def test_frozen(self):
        cfg = PfsConfig()
        with pytest.raises(Exception):
            cfg.n_osds = 99


class TestPlfsConfigValidation:
    def test_defaults_valid(self):
        cfg = PlfsConfig()
        assert cfg.aggregation == "parallel"
        assert cfg.index_merge is True

    @pytest.mark.parametrize("kw", [
        dict(aggregation="bogus"),
        dict(federation="bogus"),
        dict(n_subdirs=0),
        dict(flatten_threshold=-1),
        dict(parallel_group_size=-1),
        dict(index_spill_records=-1),
    ])
    def test_bad_parameters_rejected(self, kw):
        with pytest.raises(ConfigError):
            PlfsConfig(**kw)

    @pytest.mark.parametrize("agg", ["original", "flatten", "parallel"])
    def test_all_aggregations_accepted(self, agg):
        assert PlfsConfig(aggregation=agg).aggregation == agg

    @pytest.mark.parametrize("fed", ["none", "container", "subdir"])
    def test_all_federations_accepted(self, fed):
        assert PlfsConfig(federation=fed).federation == fed
