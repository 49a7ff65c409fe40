"""Pending edge batches and per-round edge selection.

A batch holds the not-yet-applied insertions or deletions as canonical
dense-id pairs.  Each maintenance round draws one "round plan" from it:
for every core level k present among the pending edges, a set of level-k
edges in which no vertex of core k is incident to more than one selected
edge.  That restriction is what caps every vertex's core change at one
per round, so the per-level sets can be processed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Edge, Graph, _as_pair
from .static_core import CoreMap


class BatchError(ValueError):
    pass


def edge_level(g: Graph, cores: CoreMap, u: int, v: int) -> int:
    """Level of an edge: the smaller core number of its endpoints.

    Endpoints unknown to the graph count as core 0 (a new vertex).
    """
    cu = cores.values[g.dense_of(u)] if g.has_vertex(u) else 0
    cv = cores.values[g.dense_of(v)] if g.has_vertex(v) else 0
    return int(min(cu, cv))


@dataclass
class EdgeBatch:
    """Deduplicated pending edges, canonical dense pairs in ascending order."""

    pairs: np.ndarray  # (m, 2) int32, sorted lexicographically
    alive: np.ndarray  # bool mask over pairs
    multiplicity: np.ndarray  # pending-edge count per dense vertex id
    dropped_duplicates: int = 0
    dropped_self_loops: int = 0
    dropped_existing: int = 0

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def remaining(self) -> int:
        return int(self.alive.sum())

    @property
    def touched(self) -> set[int]:
        live = self.pairs[self.alive]
        return set(np.unique(live).tolist())

    @property
    def max_multiplicity(self) -> int:
        return int(self.multiplicity.max()) if len(self.multiplicity) else 0

    def live_pairs(self) -> list[tuple[int, int, int]]:
        """(index, u, v) for each live pair, in canonical ascending order."""
        idx = np.nonzero(self.alive)[0]
        return [(int(i), int(self.pairs[i, 0]), int(self.pairs[i, 1]))
                for i in idx]


def _canonical_pairs(g: Graph, edges, create_vertices: bool):
    labels = [_as_pair(e) for e in edges]
    if any(u < 0 or v < 0 for u, v in labels):  # before any vertex exists
        raise ValueError("vertex labels must be non-negative")
    loops = 0
    pairs = []
    for u, v in labels:
        if u == v:
            loops += 1
            continue
        if create_vertices:
            du, dv = g._intern(u), g._intern(v)
        else:
            try:
                du, dv = g.dense_of(u), g.dense_of(v)
            except KeyError as exc:
                raise BatchError(f"unknown vertex {exc.args[0]} in batch") from None
        if du > dv:
            du, dv = dv, du
        pairs.append((du, dv))
    return pairs, loops


def _finish(g: Graph, pairs, loops: int) -> EdgeBatch:
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = max(g.vertex_count, 1)
    key = arr[:, 0] * n + arr[:, 1]
    uniq = np.unique(key)
    dupes = len(key) - len(uniq)
    out = np.stack([uniq // n, uniq % n], axis=1).astype(np.int32)
    mult = np.bincount(out.ravel(), minlength=g.vertex_count)
    return EdgeBatch(pairs=out, alive=np.ones(len(out), dtype=bool),
                     multiplicity=mult, dropped_duplicates=dupes,
                     dropped_self_loops=loops)


def build_insert_batch(g: Graph, edges) -> EdgeBatch:
    """Batch of edges to insert.  New endpoint labels create vertices now
    (with core 0); edges already present in the graph are dropped.
    """
    pairs, loops = _canonical_pairs(g, edges, create_vertices=True)
    batch = _finish(g, pairs, loops)
    present = np.fromiter(
        (g._has_dense(int(u), int(v)) for u, v in batch.pairs),
        dtype=bool, count=len(batch.pairs))
    if present.any():
        batch.dropped_existing = int(present.sum())
        batch.pairs = batch.pairs[~present]
        batch.alive = batch.alive[~present]
        batch.multiplicity = np.bincount(batch.pairs.ravel(),
                                         minlength=g.vertex_count)
    return batch


def build_delete_batch(g: Graph, edges) -> EdgeBatch:
    """Batch of edges to delete; every edge must exist in the graph."""
    pairs, loops = _canonical_pairs(g, edges, create_vertices=False)
    batch = _finish(g, pairs, loops)
    missing = [(g.label_of(int(u)), g.label_of(int(v)))
               for u, v in batch.pairs if not g._has_dense(int(u), int(v))]
    if missing:
        raise BatchError(f"edges not present in graph: {missing}")
    return batch


def pending_levels(batch: EdgeBatch, cores: CoreMap) -> set[int]:
    """Core levels with at least one pending edge under the current cores."""
    live = batch.pairs[batch.alive]
    if not len(live):
        return set()
    vals = cores.values
    lv = np.minimum(vals[live[:, 0]], vals[live[:, 1]])
    return set(int(x) for x in np.unique(lv))


@dataclass
class RoundPlan:
    """One round's work: per core level, the selected level-k edges."""

    levels: list[int] = field(default_factory=list)
    edges_at_level: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    selected_indices: list[int] = field(default_factory=list)
    dropped_existing: int = 0

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.edges_at_level.values())

    def all_edges(self):
        for k in self.levels:
            yield from self.edges_at_level[k]


def select_level_edges(batch: EdgeBatch, cores: CoreMap, k: int
                       ) -> list[tuple[int, int]]:
    """Level-k edges only, under the one-edge-per-level-k-vertex rule.

    Greedy scan in canonical order; does not consume the batch.  The full
    planner below selects all levels in one pass instead.
    """
    plan = plan_round(batch, cores, consume=False)
    return plan.edges_at_level.get(k, [])


def plan_round(batch: EdgeBatch, cores: CoreMap, g: Graph | None = None,
               drop_existing: bool = False, consume: bool = True) -> RoundPlan:
    """Draw one round plan from the batch under the current core numbers.

    Scans live pairs in ascending canonical order.  An edge is selected
    unless one of its endpoints sits at the edge's own level and is already
    covered by an earlier selection this round; a selected edge covers each
    of its endpoints whose core equals the level.  With ``drop_existing``
    (insert mode), pending edges that already exist in the graph are
    discarded with a counter instead of selected.
    """
    vals = cores.values
    covered: set[int] = set()
    plan = RoundPlan()
    for i, u, v in batch.live_pairs():
        cu, cv = int(vals[u]), int(vals[v])
        k = cu if cu < cv else cv
        if (cu == k and u in covered) or (cv == k and v in covered):
            continue
        if drop_existing and g is not None and g._has_dense(u, v):
            if consume:
                batch.alive[i] = False
            plan.dropped_existing += 1
            continue
        if consume:
            batch.alive[i] = False
        plan.selected_indices.append(i)
        if k not in plan.edges_at_level:
            plan.edges_at_level[k] = []
        plan.edges_at_level[k].append((u, v))
        if cu == k:
            covered.add(u)
        if cv == k:
            covered.add(v)
    plan.levels = sorted(plan.edges_at_level)
    return plan


def restore_plan(batch: EdgeBatch, plan: RoundPlan):
    """Put a planned round's edges back (round rollback on task failure)."""
    for i in plan.selected_indices:
        batch.alive[i] = True
