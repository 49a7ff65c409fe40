"""Per-level task fan-out.

Each maintenance round runs one task per core level.  Tasks receive a
frozen graph and core map and keep their working state to themselves
(the compiled kernels keep it per thread), so their write sets are
disjoint; this module only schedules them, on a thread pool kept across
rounds, and collects results in level order.  Any task failure aborts
the round before core updates are applied.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
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


class LevelTaskError(RuntimeError):
    def __init__(self, level: int, cause: BaseException):
        super().__init__(f"level {level} task failed: {cause!r}")
        self.level = level


_pools: dict[int, ThreadPoolExecutor] = {}  # one per worker limit
_pools_lock = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    """The shared pool of ``workers`` threads, reused across rounds; it
    starts threads only as tasks need them."""
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="coremaint-level")
        return pool


def run_level_tasks(levels, worker_limit: int, task,
                    weights=None) -> list[LevelTaskResult]:
    """Run ``task(level)`` for every level, at most ``worker_limit`` at a
    time, and return the results in ascending level order.

    Submission order is largest weight first (weights default to 0) so the
    heaviest level does not become the straggler.  Results are identical
    for every worker count: tasks neither share mutable state nor observe
    each other.  Nothing is raised before every task of the round has
    finished or been cancelled, so a rollback never runs beside a live
    task.
    """
    if worker_limit < 1:
        raise ValueError("worker_limit must be >= 1")
    levels = list(levels)
    wmap = weights or {}
    order = sorted(levels, key=lambda k: (-wmap.get(k, 0), k))
    results: list[LevelTaskResult] = []
    if worker_limit == 1 or len(order) <= 1:
        for k in order:
            try:
                results.append(task(k))
            except Exception as exc:
                raise LevelTaskError(k, exc) from exc
    else:
        pool = _pool(worker_limit)
        futures = [(k, pool.submit(task, k)) for k in order]
        try:
            wait([fut for _, fut in futures])
        except BaseException:  # interrupted while waiting
            for _, fut in futures:
                fut.cancel()
            wait([fut for _, fut in futures])
            raise
        for k, fut in futures:
            exc = fut.exception()
            if isinstance(exc, Exception):
                raise LevelTaskError(k, exc) from exc
            if exc is not None:  # an interrupt inside the task
                raise exc
            results.append(fut.result())
    for res, k in zip(sorted(results, key=lambda r: r.level), sorted(levels)):
        if res.level != k:
            raise LevelTaskError(k, AssertionError("missing level result"))
    return sorted(results, key=lambda r: r.level)
