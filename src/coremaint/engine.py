"""Batched core maintenance engines.

``insert_edges`` and ``delete_edges`` consume a pending batch round by
round: plan one per-level edge selection, apply it to the graph in an
exclusive phase, traverse every level concurrently to find the vertices
whose core moves, then shift those cores by exactly one.  The selection
rule (at most one pending edge per vertex at its own core level) is what
makes the one-step shift correct.  An insert round may instead take every
pair of one free level (``batch``'s docstring has the rule and its
proof).  Every insert task ends with a peel of its risers, of which only
the free level's can leave survivors; when one survives, the engine
undoes the round and plans it, and the rest of the batch, by the strict
rule, counting one replayed round.

Before its first round the engine looks the batch's live pairs up in the
graph once: an insert batch drops the pairs already present, and a delete
batch with an absent pair is rejected before anything changes.  A round's
pairs are marked done in the batch only once its cores have shifted, so a
failed round undoes its graph mutation and leaves the batch as it was.

Each layer of a round is one call into the kernel backend (the contract
is in ``_kernels_py``): the pair check, the plan, the mutation and the
level fan-out.  The plan is flat, the selected pairs grouped by level in
two id arrays, and the mutation and the level tasks read those arrays as
they are.  A round's level tasks run in one ``run_level_tasks`` call,
which hands them to the backend's ``run_levels``.  Tasks receive a frozen
graph and core map and keep their working state to themselves, so they
move disjoint vertex sets.  The fan-out returns one array of moved ids and
one row per level, so the core shift is one numpy operation.  The round's
``RoundRecord`` keeps the plan and those two arrays, plus the wall time of
the whole fan-out, and builds its per-level view (each task's moved
vertices, counters, wall time, thread-CPU time and worker slot), its
changed vertices and its counters when they are read.

The level tasks prune with each vertex's support (its neighbours of core
at least its own), which the core map carries (``static_core``) and
``run_levels`` keeps up to date round by round, so no task counts it.
The map's support is valid while ``cores.counted_for`` is the graph's
``edge_state``: a batch counts it again (one backend call) when the
tokens differ, clears ``counted_for`` while it runs and sets it when it
returns.  A batch that raised, or an edge edit outside the engines,
thus leaves the next batch to recount; copies of a graph and its map
share their tokens and recount nothing.

With ``audit=True`` the engine first checks the core map against a fresh
``peel`` of the graph and raises ValueError, changing nothing, when they
differ; it also records an audit violation when the support differs from
a fresh count at the start of the batch or after a round.  Without it,
keeping the map in step with the graph is the caller's job.

``sequential_baseline`` runs the same round loop with one-edge rounds:
each round takes the first live pair in canonical order, alone, at its
level, as single-edge maintenance algorithms process a batch.  It is the
comparison target for the round-based engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._kernels_py import COUNTERS, SURVIVORS, _check_round
from .batch import BatchError, EdgeBatch, RoundPlan, edge_lists, plan_round
from .graph import Graph
from .kernels import get_backend
from .static_core import CoreMap


@dataclass
class TaskCounters:
    visited: int = 0
    removed: int = 0
    neg_touches: int = 0
    sup_evals: int = 0
    csup_evals: int = 0

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
    survivors: int  # risers left by an insert task's peel; 0 on delete


def run_level_tasks(be, mode: str, starts, lens, pool, cores, support, ks,
                    offsets, us, vs,
                    workers: int) -> tuple[np.ndarray, np.ndarray]:
    """Run the level task of every level of the flat plan (ks, offsets,
    us, vs) with backend ``be``, at most ``workers`` at a time, and return
    its ``run_levels`` result: the moved ids, level after level, and one
    row per level, both in ascending level order.  Every insert task ends
    with the peel of its risers.  ``support`` is kept up to date in place
    (the rule is in ``_kernels_py``'s docstring).

    Results are identical for every worker count: tasks neither share
    mutable state nor observe each other.  A failed task raises
    ``LevelTaskError`` naming its level, and only once every task of the
    round has finished, so a rollback never runs beside a live task.
    """
    return be.run_levels(mode, starts, lens, pool, cores, support, ks,
                         offsets, us, vs, workers)


@dataclass
class RoundRecord:
    index: int
    plan: RoundPlan
    moved: np.ndarray  # the moved ids and the level rows of run_levels
    rows: np.ndarray
    fanout_ns: int  # wall time of the round's run_level_tasks call

    @property
    def counters(self) -> TaskCounters:
        """The round's five counters, summed over its levels."""
        return TaskCounters(*self.rows[:, COUNTERS].sum(axis=0).tolist())

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(self.plan.levels)

    @property
    def level_edges(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """As ``RoundPlan.level_edges``."""
        return self.plan.level_edges

    @property
    def free_level(self) -> int | None:
        return self.plan.free_level

    @property
    def changed(self) -> tuple[int, ...]:
        """The dense ids whose core moved, ascending."""
        return tuple(np.sort(self.moved).tolist())

    @property
    def tasks(self) -> tuple[LevelTaskResult, ...]:
        """Per level, ascending, built on each access."""
        return tuple(LevelTaskResult(k, self.moved[at:at + count],
                                     TaskCounters(*counters), wall, cpu,
                                     worker, survivors)
                     for k, count, at, *counters, wall, cpu, worker,
                     survivors in self.rows.tolist())

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
    edges_applied: int = 0
    dropped_existing: int = 0
    # free rounds undone and planned again; their work is in no record
    replayed_rounds: int = 0
    replayed_ns: int = 0  # wall time of their run_level_tasks calls
    audit_violations: list[str] = field(default_factory=list)

    @property
    def rounds_executed(self) -> int:
        return len(self.rounds)

    @property
    def counters(self) -> TaskCounters:
        """The five counters, summed over the committed rounds."""
        return sum((r.counters for r in self.rounds), TaskCounters())

    @property
    def changed_total(self) -> int:
        return sum(len(r.moved) for r in self.rounds)

    def write_text(self, fh, g: Graph):
        """Line-oriented round records with external vertex labels."""
        labels = g.labels()
        verb = "raised" if self.mode.startswith("insert") else "lowered"
        for rec in self.rounds:
            fh.write(f"round {rec.index} levels "
                     f"{','.join(map(str, rec.levels))}\n")
            for k, (us, vs) in rec.level_edges.items():
                for u, v in zip(labels[us].tolist(), labels[vs].tolist()):
                    fh.write(f"applied {k} {u} {v}\n")
            changed = labels[list(rec.changed)].tolist()
            fh.write(f"{verb} {' '.join(map(str, changed))}\n")


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


_NONE = np.zeros(0, dtype=np.intp)
_NONE.flags.writeable = False


def _check_pairs(g: Graph, batch: EdgeBatch, insert: bool,
                 be) -> np.ndarray:
    """Look the batch's pairs up in the graph, in one call.  An insert
    batch drops the live pairs already present and returns their indices;
    a delete batch returns none, or raises ``BatchError``, changing
    nothing, when a live pair is absent."""
    present = g._has_dense(*batch.columns, backend=be)
    if insert:
        present &= batch.alive
        dropped = present.nonzero()[0]
        batch.alive[dropped] = False
        return dropped
    absent = batch.alive > present
    if absent.any():
        missing = list(map(tuple, g.labels()[batch.pairs[absent]]
                           .tolist()))
        raise BatchError(f"edges not present in graph: {missing}")
    return _NONE


def _check_cores(g: Graph, cores: CoreMap, be):
    """Raise ValueError, changing nothing, unless ``cores`` (padded as
    ``fit_to`` would pad it) equals a fresh ``peel`` of ``g``."""
    fitted = cores.copy()
    fitted.fit_to(g)
    expect = be.peel_kernel(g.vertex_count, *g.adjacency_arrays())
    wrong = (fitted.values != expect).nonzero()[0]
    if len(wrong):
        v = int(wrong[0])
        raise ValueError(
            f"core map does not match the graph: vertex {g.label_of(v)} "
            f"has core {int(fitted.values[v])}, peel gives {int(expect[v])} "
            f"({len(wrong)} vertices differ)")


def _support_of(g: Graph, cores: CoreMap, be) -> np.ndarray:
    """The map's support, counted again (one backend call) unless it was
    counted for ``g``'s edges as they stand."""
    if cores.counted_for is not g.edge_state:
        cores.support = be.count_support(*g.adjacency_arrays(), cores.values)
    return cores.support


def _audit_support(log: MaintenanceLog, g: Graph, cores: CoreMap, be,
                   when: str):
    fresh = be.count_support(*g.adjacency_arrays(), cores.values)
    wrong = (cores.support != fresh).nonzero()[0]
    if len(wrong):
        log.audit_violations.append(
            f"{when}: support of vertex {int(wrong[0])} is "
            f"{int(cores.support[wrong[0]])}, a fresh count gives "
            f"{int(fresh[wrong[0]])}")


def _first_pair(batch: EdgeBatch, cores: CoreMap, backend=None) -> RoundPlan:
    """The baseline's round plan: the first live pair in canonical order,
    alone, at its level."""
    i = int(batch.alive.argmax())
    us, vs = batch.pairs[i:i + 1, 0], batch.pairs[i:i + 1, 1]
    k = min(int(cores.values[us[0]]), int(cores.values[vs[0]]))
    return RoundPlan(np.array([k], dtype=np.int64),
                     np.array([0, 1], dtype=np.int64), us, vs,
                     np.array([i], dtype=np.intp))


def _run_batch(g: Graph, cores: CoreMap, batch: EdgeBatch, mode: str, *,
               workers: int, backend, audit: bool,
               planner=None) -> MaintenanceLog:
    """The round loop; ``planner`` plans each round (default: the module's
    ``plan_round``, looked up on each call, which frees a level of insert
    rounds until a free round is replayed)."""
    insert = mode == "insert"
    free = insert and planner is None
    be = get_backend(backend)
    _check_round(mode, workers)  # before anything changes
    if audit:
        _check_cores(g, cores, be)
    cores.fit_to(g)  # kept on failure: the zero padding of new vertices
    support = _support_of(g, cores, be)
    cores.counted_for = None  # until the batch returns (module docstring)
    step = 1 if insert else -1
    remove = partial(g._remove_dense, backend=be)
    apply, undo = ((g._add_dense, remove) if insert
                   else (remove, g._add_dense))
    log = MaintenanceLog(mode=mode, batch_size=batch.size,
                         max_multiplicity=batch.max_multiplicity)
    if audit:
        _audit_support(log, g, cores, be, "batch start")
    dropped = _check_pairs(g, batch, insert, be)
    log.dropped_existing = len(dropped)
    pending = batch.remaining
    try:
        while pending:
            plan = (planner(batch, cores, backend=be) if planner else
                    plan_round(batch, cores, backend=be, free=free,
                               index=len(log.rounds) + 1))
            pre = cores.values.copy() if audit else None
            apply(plan.us, plan.vs)
            start = time.perf_counter_ns()
            try:
                moved, rows = run_level_tasks(
                    be, mode, *g.adjacency_arrays(), cores.values, support,
                    plan.ks, plan.offsets, plan.us, plan.vs, workers)
            except BaseException:  # interrupts too: re-playable round
                undo(plan.us, plan.vs)
                raise
            fanout_ns = time.perf_counter_ns() - start
            if plan.free_level is not None and rows[:, SURVIVORS].any():
                # a riser may have moved by two: strict rounds from here
                undo(plan.us, plan.vs)
                log.replayed_rounds += 1
                log.replayed_ns += fanout_ns
                free = False
                continue
            cores.values[moved] += step  # levels move disjoint vertex sets
            batch.alive[plan.selected_indices] = False  # committed
            pending -= plan.edge_count
            log.edges_applied += plan.edge_count
            rec = RoundRecord(len(log.rounds) + 1, plan, moved, rows,
                              fanout_ns)
            log.rounds.append(rec)
            if audit:
                _audit_round(log, pre, cores.values, rec.levels, step,
                             rec.index)
                _audit_support(log, g, cores, be, f"round {rec.index}")
    except BaseException:  # the pairs found present are pending again
        batch.alive[dropped] = True
        raise
    cores.counted_for = g.edge_state
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

    Every round takes the first live pair in canonical order, alone, at
    its level, so cores are updated right after each edge, exactly as
    single-edge maintenance would do.  The batch is checked against the
    graph once, and a pair is consumed only when its round commits, as in
    the round engine, whose final cores it must match.
    """
    log = _run_batch(g, cores, batch, mode, workers=1, backend=backend,
                     audit=False, planner=_first_pair)
    log.mode = f"{mode}-baseline"
    return log
