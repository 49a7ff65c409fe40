"""Batch-parallel k-core maintenance for dynamic graphs."""

from ._kernels_py import LevelTaskError
from .batch import (BatchError, EdgeBatch, RoundPlan, build_delete_batch,
                    build_insert_batch, plan_round)
from .engine import (LevelTaskResult, MaintenanceLog, RoundRecord,
                     TaskCounters, delete_edges, insert_edges,
                     run_level_tasks, sequential_baseline)
from .graph import (Edge, EdgeListParseError, Graph, SelfLoopError,
                    load_edge_list, save_edge_list)
from .kernels import available_backends, default_backend_name, get_backend
from .static_core import CoreMap, peel, read_core_file, write_core_file

__version__ = "0.1.0"
