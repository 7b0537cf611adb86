"""Validation tests for MPI-IO hints."""

import pytest

from repro.errors import ConfigError
from repro.mpiio import Hints


class TestHints:
    def test_defaults(self):
        h = Hints()
        assert not h.cb_enable
        assert h.cb_nodes == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Hints(cb_nodes=-1)

    def test_frozen(self):
        h = Hints()
        with pytest.raises(Exception):
            h.cb_enable = True
