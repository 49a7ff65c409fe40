"""Per-level task records and the round's level fan-out.

Each maintenance round runs one task per core level.  Tasks receive a
frozen graph and core map and keep their working state to themselves, so
their write sets are disjoint.  The kernel backend's ``run_levels`` runs
them all: the compiled lane in one foreign call, on the calling thread and
helper threads kept across rounds, the Python lane one after another on
the calling thread.  This module turns its rows into ``LevelTaskResult``
records in level order.  Any task failure aborts the round before core
updates are applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TaskCounters:
    visited: int = 0
    removed: int = 0
    neg_touches: int = 0
    sup_evals: int = 0
    csup_evals: int = 0

    @classmethod
    def from_tuple(cls, t) -> "TaskCounters":
        return cls(*map(int, t))

    def __add__(self, other: "TaskCounters") -> "TaskCounters":
        return TaskCounters(
            self.visited + other.visited,
            self.removed + other.removed,
            self.neg_touches + other.neg_touches,
            self.sup_evals + other.sup_evals,
            self.csup_evals + other.csup_evals,
        )


@dataclass
class LevelTaskResult:
    level: int
    vertices: np.ndarray  # ascending dense ids whose core changes
    counters: TaskCounters
    wall_ns: int  # the task's wall time
    cpu_ns: int  # CPU time of the thread that ran it, during the task
    worker: int  # 0: the calling thread; h: the round's h-th helper


class LevelTaskError(RuntimeError):
    def __init__(self, level: int, cause: BaseException):
        super().__init__(f"level {level} task failed: {cause!r}")
        self.level = level


def run_level_tasks(be, mode: str, starts, lens, pool, cores, level_edges,
                    workers: int) -> list[LevelTaskResult]:
    """Run the level task of every level of ``level_edges`` with backend
    ``be`` (see its ``run_levels``), at most ``workers`` at a time, and
    return the results in ascending level order.

    Results are identical for every worker count: tasks neither share
    mutable state nor observe each other.  A failed task raises
    ``LevelTaskError`` naming its level, and only once every task of the
    round has finished, so a rollback never runs beside a live task.
    """
    return [LevelTaskResult(k, moved, TaskCounters.from_tuple(counters),
                            wall, cpu, worker)
            for k, moved, counters, wall, cpu, worker in be.run_levels(
                mode, starts, lens, pool, cores, level_edges, workers)]
