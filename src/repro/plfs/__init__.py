"""PLFS: the paper's transformative middleware (containers, index, aggregation)."""

from .aggregation import (
    aggregate_original,
    aggregate_parallel,
    flatten_on_close,
    list_index_logs,
    read_flattened_index,
)
from .api import PlfsMount
from .config import AGGREGATIONS, FEDERATIONS, PlfsConfig
from .container import ContainerLayout
from .index import GlobalIndex, WriterIndex
from .reader import PlfsReadHandle
from .tools import CheckReport, plfs_check, plfs_map, plfs_recover
from .writer import PlfsWriteHandle

__all__ = [
    "PlfsMount",
    "PlfsConfig",
    "AGGREGATIONS",
    "FEDERATIONS",
    "ContainerLayout",
    "GlobalIndex",
    "WriterIndex",
    "PlfsReadHandle",
    "PlfsWriteHandle",
    "CheckReport",
    "plfs_check",
    "plfs_map",
    "plfs_recover",
    "aggregate_original",
    "aggregate_parallel",
    "flatten_on_close",
    "list_index_logs",
    "read_flattened_index",
]
