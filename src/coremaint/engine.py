"""Batched core maintenance engines.

``insert_edges`` and ``delete_edges`` consume a pending batch round by
round: plan one per-level edge selection, apply it to the graph in an
exclusive phase, traverse every level concurrently to find the vertices
whose core moves, then shift those cores by exactly one.  The selection
rule (at most one pending edge per vertex at its own core level) is what
makes the one-step shift correct.

``sequential_baseline`` runs the same round loop one edge at a time,
mirroring how single-edge maintenance algorithms process a batch; it is
the comparison target for the round-based engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .batch import (EdgeBatch, edge_lists, _endpoint_counts, plan_round,
                    restore_plan)
from .graph import Graph
from .kernels import get_backend
from .runtime import LevelTaskResult, TaskCounters, run_level_tasks
from .static_core import CoreMap


@dataclass
class RoundRecord:
    index: int
    levels: tuple[int, ...]
    level_edges: dict[int, tuple[np.ndarray, np.ndarray]]  # as in RoundPlan
    changed: tuple[int, ...]  # dense ids, ascending
    counters: TaskCounters

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


def _run_batch(g: Graph, cores: CoreMap, batch: EdgeBatch, mode: str, *,
               workers: int, backend, audit: bool) -> MaintenanceLog:
    insert = mode == "insert"
    be = get_backend(backend)
    cores.fit_to(g)
    kernel = be.insert_level if insert else be.delete_level
    step = 1 if insert else -1
    remove = partial(g._remove_dense, backend=be)
    apply, undo = ((g._add_dense, remove) if insert
                   else (remove, g._add_dense))
    log = MaintenanceLog(mode=mode, batch_size=batch.size,
                         max_multiplicity=batch.max_multiplicity)
    while batch.remaining:
        plan = plan_round(batch, cores, g, drop_existing=insert, backend=be)
        log.dropped_existing += plan.dropped_existing
        if not plan.levels:
            continue
        pre = cores.values.copy() if audit else None
        edges = batch.pairs[plan.selected_indices]
        try:
            apply(edges[:, 0], edges[:, 1])
        except ValueError:  # an edge to delete is gone; nothing was applied
            restore_plan(batch, plan)
            raise
        starts, lens, pool = g.adjacency_arrays()
        level_edges = plan.level_edges

        def task(k: int) -> LevelTaskResult:
            eu, ev = level_edges[k]
            moved, counters = kernel(starts, lens, pool, cores.values,
                                     k, eu, ev)
            return LevelTaskResult(k, moved, TaskCounters.from_tuple(counters))

        weights = {k: len(eu) for k, (eu, _) in level_edges.items()}
        try:
            results = run_level_tasks(plan.levels, workers, task, weights)
        except BaseException:  # interrupts too: re-playable round rollback
            undo(edges[:, 0], edges[:, 1])
            restore_plan(batch, plan)
            raise
        changed: list[int] = []
        agg = TaskCounters()
        for res in results:
            cores.values[res.vertices] += step
            changed.extend(res.vertices.tolist())
            agg = agg + res.counters
        changed.sort()
        log.edges_applied += plan.edge_count
        rec = RoundRecord(len(log.rounds) + 1, tuple(plan.levels),
                          level_edges, tuple(changed), agg)
        log.rounds.append(rec)
        log.counters = log.counters + agg
        if audit:
            _audit_round(log, pre, cores.values, rec.levels, step, rec.index)
    return log


def insert_edges(g: Graph, cores: CoreMap, batch: EdgeBatch, *,
                 workers: int = 1, backend=None,
                 audit: bool = False) -> MaintenanceLog:
    """Apply a batch of insertions and update ``cores`` in place."""
    return _run_batch(g, cores, batch, "insert", workers=workers,
                      backend=backend, audit=audit)


def delete_edges(g: Graph, cores: CoreMap, batch: EdgeBatch, *,
                 workers: int = 1, backend=None,
                 audit: bool = False) -> MaintenanceLog:
    """Apply a batch of deletions and update ``cores`` in place."""
    return _run_batch(g, cores, batch, "delete", workers=workers,
                      backend=backend, audit=audit)


def sequential_baseline(g: Graph, cores: CoreMap, batch: EdgeBatch,
                        mode: str, backend=None) -> MaintenanceLog:
    """Process the batch strictly one edge at a time.

    Each live pair, in canonical order, runs through the round engine as a
    one-edge batch, so cores are updated right after it, exactly as
    single-edge maintenance would do.  A pair is consumed only once its run
    has returned, so an interrupt leaves it pending and unapplied.  Final
    cores must match the round-based engine.
    """
    log = MaintenanceLog(mode=f"{mode}-baseline", batch_size=batch.size,
                         max_multiplicity=batch.max_multiplicity)
    for i in batch.alive.nonzero()[0].tolist():
        one = EdgeBatch(batch.pairs[i:i + 1], np.ones(1, dtype=bool),
                        multiplicity=_endpoint_counts(batch.pairs[i]))
        run = _run_batch(g, cores, one, mode, workers=1, backend=backend,
                         audit=False)
        batch.alive[i] = False
        for rec in run.rounds:
            rec.index = len(log.rounds) + 1
            log.rounds.append(rec)
        log.counters = log.counters + run.counters
        log.edges_applied += run.edges_applied
        log.dropped_existing += run.dropped_existing
    return log
