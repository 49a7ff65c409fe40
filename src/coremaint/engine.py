"""Batched core maintenance engines.

``insert_edges`` and ``delete_edges`` consume a pending batch round by
round: plan one per-level edge selection, apply it to the graph in an
exclusive phase, traverse every level concurrently to find the vertices
whose core moves, then shift those cores by exactly one.  The selection
rule (at most one pending edge per vertex at its own core level) is what
makes the one-step shift correct.

Before its first round the engine looks the batch's live pairs up in the
graph once: an insert batch drops the pairs already present, and a delete
batch with an absent pair is rejected before anything changes.  A round's
pairs are marked done in the batch only once its cores have shifted, so a
failed round undoes its graph mutation and leaves the batch as it was.

Each round's level tasks run in one ``run_level_tasks`` call, which hands
them to the kernel backend's ``run_levels`` (the backend contract is in
``_kernels_py``).  Tasks receive a frozen graph and core map and keep
their working state to themselves, so they move disjoint vertex sets.
The round's ``RoundRecord`` keeps, per level, the task's wall time,
thread-CPU time and worker slot beside its moved vertices and counters,
plus the wall time of the whole fan-out.

With ``audit=True`` the engine first checks the core map against a fresh
``peel`` of the graph and raises ValueError, changing nothing, when they
differ; without it, keeping the map in step with the graph is the
caller's job.

``sequential_baseline`` runs the same round loop one edge at a time,
mirroring how single-edge maintenance algorithms process a batch; it is
the comparison target for the round-based engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._kernels_py import _check_round
from .batch import (BatchError, EdgeBatch, edge_lists, _endpoint_counts,
                    plan_round)
from .graph import Graph
from .kernels import get_backend
from .static_core import CoreMap, peel


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


@dataclass
class RoundRecord:
    index: int
    levels: tuple[int, ...]
    level_edges: dict[int, tuple[np.ndarray, np.ndarray]]  # as in RoundPlan
    changed: tuple[int, ...]  # dense ids, ascending
    counters: TaskCounters
    tasks: tuple[LevelTaskResult, ...]  # per level, ascending
    fanout_ns: int  # wall time of the round's run_level_tasks call

    @property
    def edges_at_level(self) -> dict[int, list[tuple[int, int]]]:
        """The level edges as (u, v) lists, built on each access."""
        return edge_lists(self.level_edges)


@dataclass
class MaintenanceLog:
    mode: str
    batch_size: int
    max_multiplicity: int
    rounds: list[RoundRecord] = field(default_factory=list)
    counters: TaskCounters = field(default_factory=TaskCounters)
    edges_applied: int = 0
    dropped_existing: int = 0
    audit_violations: list[str] = field(default_factory=list)

    @property
    def rounds_executed(self) -> int:
        return len(self.rounds)

    @property
    def changed_total(self) -> int:
        return sum(len(r.changed) for r in self.rounds)

    def write_text(self, fh, g: Graph):
        """Line-oriented round records with external vertex labels."""
        lab = g.label_of
        for rec in self.rounds:
            fh.write(f"round {rec.index} levels "
                     f"{','.join(map(str, rec.levels))}\n")
            for k, edges in rec.edges_at_level.items():
                for u, v in edges:
                    fh.write(f"applied {k} {lab(u)} {lab(v)}\n")
            verb = "raised" if self.mode.startswith("insert") else "lowered"
            fh.write(f"{verb} {' '.join(str(lab(v)) for v in rec.changed)}\n")


def _audit_round(log: MaintenanceLog, pre: np.ndarray, post: np.ndarray,
                 levels: tuple[int, ...], direction: int, rnd: int):
    diff = post.astype(np.int64) - pre.astype(np.int64)
    moved = np.nonzero(diff)[0]
    if len(moved) and int(np.abs(diff[moved]).max()) > 1:
        log.audit_violations.append(
            f"round {rnd}: core changed by more than 1")
    level_set = set(levels)
    for v in moved.tolist():
        if int(pre[v]) not in level_set:
            log.audit_violations.append(
                f"round {rnd}: vertex {v} changed outside the round's levels")
            break
    if direction > 0 and len(moved) and diff[moved].min() < 0:
        log.audit_violations.append(f"round {rnd}: core decreased on insert")
    if direction < 0 and len(moved) and diff[moved].max() > 0:
        log.audit_violations.append(f"round {rnd}: core increased on delete")


def _check_pairs(g: Graph, batch: EdgeBatch, insert: bool,
                 be) -> np.ndarray:
    """Look the batch's live pairs up in the graph, in one call.  An insert
    batch drops the pairs already present and returns their indices; a
    delete batch returns none, or raises ``BatchError``, changing nothing,
    when a pair is absent."""
    idx = batch.alive.nonzero()[0]
    present = g._has_dense(batch.pairs[idx, 0], batch.pairs[idx, 1],
                           backend=be)
    if insert:
        batch.alive[idx[present]] = False
        return idx[present]
    if not present.all():
        missing = [(g.label_of(u), g.label_of(v))
                   for u, v in batch.pairs[idx[~present]].tolist()]
        raise BatchError(f"edges not present in graph: {missing}")
    return idx[:0]


def _check_cores(g: Graph, cores: CoreMap, be):
    """Raise ValueError, changing nothing, unless ``cores`` (padded as
    ``fit_to`` would pad it) equals a fresh ``peel`` of ``g``."""
    fitted = cores.copy()
    fitted.fit_to(g)
    expect = peel(g, backend=be).values
    wrong = (fitted.values != expect).nonzero()[0]
    if len(wrong):
        v = int(wrong[0])
        raise ValueError(
            f"core map does not match the graph: vertex {g.label_of(v)} "
            f"has core {int(fitted.values[v])}, peel gives {int(expect[v])} "
            f"({len(wrong)} vertices differ)")


def _run_batch(g: Graph, cores: CoreMap, batch: EdgeBatch, mode: str, *,
               workers: int, backend, audit: bool) -> MaintenanceLog:
    insert = mode == "insert"
    be = get_backend(backend)
    _check_round(mode, workers)  # before anything changes
    if audit:
        _check_cores(g, cores, be)
    cores.fit_to(g)  # kept on failure: the zero padding of new vertices
    step = 1 if insert else -1
    remove = partial(g._remove_dense, backend=be)
    apply, undo = ((g._add_dense, remove) if insert
                   else (remove, g._add_dense))
    log = MaintenanceLog(mode=mode, batch_size=batch.size,
                         max_multiplicity=batch.max_multiplicity)
    dropped = _check_pairs(g, batch, insert, be)
    log.dropped_existing = len(dropped)
    try:
        while batch.remaining:
            plan = plan_round(batch, cores, backend=be)
            pre = cores.values.copy() if audit else None
            selected = np.asarray(plan.selected_indices, dtype=np.intp)
            edges = batch.pairs[selected]
            apply(edges[:, 0], edges[:, 1])
            starts, lens, pool = g.adjacency_arrays()
            start = time.perf_counter_ns()
            try:
                results = run_level_tasks(be, mode, starts, lens, pool,
                                          cores.values, plan.level_edges,
                                          workers)
            except BaseException:  # interrupts too: re-playable round
                undo(edges[:, 0], edges[:, 1])
                raise
            fanout_ns = time.perf_counter_ns() - start
            moved = np.concatenate([res.vertices for res in results])
            cores.values[moved] += step  # levels move disjoint vertex sets
            agg = sum((res.counters for res in results), TaskCounters())
            batch.alive[selected] = False  # the round has committed
            log.edges_applied += plan.edge_count
            rec = RoundRecord(len(log.rounds) + 1, tuple(plan.levels),
                              plan.level_edges,
                              tuple(np.sort(moved).tolist()), agg,
                              tuple(results), fanout_ns)
            log.rounds.append(rec)
            log.counters = log.counters + agg
            if audit:
                _audit_round(log, pre, cores.values, rec.levels, step,
                             rec.index)
    except BaseException:  # the pairs found present are pending again
        batch.alive[dropped] = True
        raise
    return log


def insert_edges(g: Graph, cores: CoreMap, batch: EdgeBatch, *,
                 workers: int = 1, backend=None,
                 audit: bool = False) -> MaintenanceLog:
    """Apply a batch of insertions and update ``cores`` in place.

    ``cores`` must be the core numbers of ``g`` as it stands.  With
    ``audit`` this is checked first (ValueError, nothing changed, when it
    fails) and every round is audited; without it the caller must keep
    the map in step with the graph.
    """
    return _run_batch(g, cores, batch, "insert", workers=workers,
                      backend=backend, audit=audit)


def delete_edges(g: Graph, cores: CoreMap, batch: EdgeBatch, *,
                 workers: int = 1, backend=None,
                 audit: bool = False) -> MaintenanceLog:
    """Apply a batch of deletions and update ``cores`` in place.

    ``cores`` must be the core numbers of ``g`` as it stands; ``audit``
    as for ``insert_edges``.
    """
    return _run_batch(g, cores, batch, "delete", workers=workers,
                      backend=backend, audit=audit)


def sequential_baseline(g: Graph, cores: CoreMap, batch: EdgeBatch,
                        mode: str, backend=None) -> MaintenanceLog:
    """Process the batch strictly one edge at a time.

    Each live pair, in canonical order, runs through the round engine as a
    one-edge batch, so cores are updated right after it, exactly as
    single-edge maintenance would do.  The whole batch is checked against
    the graph first, as in the round engine.  A pair is consumed only once
    its run has returned, so an interrupt leaves it pending and unapplied.
    Final cores must match the round-based engine.
    """
    log = MaintenanceLog(mode=f"{mode}-baseline", batch_size=batch.size,
                         max_multiplicity=batch.max_multiplicity)
    dropped = _check_pairs(g, batch, mode == "insert", get_backend(backend))
    log.dropped_existing = len(dropped)
    try:
        for i in batch.alive.nonzero()[0].tolist():
            one = EdgeBatch(batch.pairs[i:i + 1], np.ones(1, dtype=bool),
                            multiplicity=_endpoint_counts(batch.pairs[i]))
            run = _run_batch(g, cores, one, mode, workers=1,
                             backend=backend, audit=False)
            batch.alive[i] = False
            for rec in run.rounds:
                rec.index = len(log.rounds) + 1
                log.rounds.append(rec)
            log.counters = log.counters + run.counters
            log.edges_applied += run.edges_applied
    except BaseException:  # the pairs found present are pending again
        batch.alive[dropped] = True
        raise
    return log
