"""Unit tests for the workload framework's own API surface."""

import pytest

from repro.errors import ConfigError
from repro.mpiio import PlfsDriver, UfsDriver
from repro.units import KB
from repro.workloads import IOR, MPIIOTest, Workload, direct_stack, plfs_stack
from repro.workloads.base import PhaseResult
from tests.conftest import make_world


class TestWorkloadBase:
    def test_abstract_plan_required(self):
        wl = Workload(4)
        with pytest.raises(NotImplementedError):
            list(wl.write_rounds(0))

    def test_nprocs_validated(self):
        with pytest.raises(ConfigError):
            MPIIOTest(0)

    def test_describe(self):
        assert "N-1" in MPIIOTest(4).describe()
        assert "N-N" in MPIIOTest(4, layout="nn").describe()

    def test_seeds_differ_per_rank_and_workload(self):
        a, b = MPIIOTest(4), IOR(4)
        assert a.seed(0) != a.seed(1)
        assert a.seed(0) != b.seed(0)

    def test_transfer_validation(self):
        with pytest.raises(ConfigError):
            MPIIOTest(2, size_per_proc=0)
        with pytest.raises(ConfigError):
            IOR(2, transfer=0)
        with pytest.raises(ConfigError):
            MPIIOTest(2, layout="diagonal")


class TestStacks:
    def test_stack_names(self, world):
        assert direct_stack(world).name == "direct"
        assert plfs_stack(world).name == "plfs"

    def test_stack_is_its_driver(self, world):
        assert isinstance(plfs_stack(world), PlfsDriver)
        assert plfs_stack(world).mount is world.mount
        assert isinstance(direct_stack(world), UfsDriver)
        assert direct_stack(world).volume is world.volume


class TestPhaseResult:
    def test_effective_bandwidth(self):
        pr = PhaseResult(phase="read", nprocs=4, bytes_moved=1000,
                         open_time=0.1, io_time=0.3, close_time=0.1,
                         wall_time=0.5)
        assert pr.effective_bandwidth == pytest.approx(2000.0)

    def test_zero_wall_safe(self):
        pr = PhaseResult(phase="read", nprocs=1, bytes_moved=10,
                         open_time=0, io_time=0, close_time=0, wall_time=0)
        assert pr.effective_bandwidth == 0.0
