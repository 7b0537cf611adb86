"""Workloads: synthetic generators, the paper's I/O kernels, metadata storms."""

from .appsuite import AppSpec, app_suite
from .campaign import Campaign, CampaignResult, daly_interval
from .base import (
    PhaseResult,
    Workload,
    WorkloadResult,
    direct_stack,
    make_stack,
    plfs_stack,
    run_workload,
)
from .kernels import LANL1, LANL3, Aramco, MADbench, Pixie3D
from .metadata_bench import MetadataTimes, n1_open_storm, nn_metadata_storm
from .synthetic import IOR, MPIIOTest

__all__ = [
    "AppSpec",
    "Campaign",
    "CampaignResult",
    "daly_interval",
    "app_suite",
    "PhaseResult",
    "Workload",
    "WorkloadResult",
    "direct_stack",
    "make_stack",
    "plfs_stack",
    "run_workload",
    "LANL1",
    "LANL3",
    "Aramco",
    "MADbench",
    "Pixie3D",
    "MetadataTimes",
    "n1_open_storm",
    "nn_metadata_storm",
    "IOR",
    "MPIIOTest",
]
