"""Pending edge batches and per-round edge selection.

A batch holds the not-yet-applied insertions or deletions as canonical
dense-id pairs.  Each maintenance round draws one "round plan" from it:
for every core level k present among the pending edges, a set of level-k
edges in which no vertex of core k is incident to more than one selected
edge.  That restriction is what caps every vertex's core change at one
per round, so the per-level sets can be processed concurrently.

The selection is one greedy scan over the live pairs in canonical order,
done by the kernel backend's ``plan_scan``.  The scan only marks each pair
selected, dropped or pending; the plan is assembled here with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels_py import PENDING, SELECTED
from .graph import Graph, _as_pair, sorted_unique
from .kernels import get_backend
from .static_core import CoreMap


class BatchError(ValueError):
    pass


@dataclass
class EdgeBatch:
    """Deduplicated pending edges, canonical dense pairs in ascending order."""

    pairs: np.ndarray  # (m, 2) int32, sorted lexicographically
    alive: np.ndarray  # bool mask over pairs
    multiplicity: np.ndarray  # batch-edge count per distinct endpoint
    dropped_duplicates: int = 0
    dropped_self_loops: int = 0
    dropped_existing: int = 0

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def remaining(self) -> int:
        return np.count_nonzero(self.alive)

    @property
    def max_multiplicity(self) -> int:
        return int(self.multiplicity.max()) if len(self.multiplicity) else 0


def _label_pairs(edges) -> np.ndarray:
    """The batch's label pairs as an (m, 2) int64 array."""
    try:
        arr = np.array(edges, dtype=np.int64)
    except (TypeError, ValueError):  # Edge objects, iterators, mixed items
        arr = np.array([_as_pair(e) for e in edges], dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be vertex pairs")
    return arr


def _endpoint_counts(pairs: np.ndarray) -> np.ndarray:
    """How many of the pairs touch each of their distinct endpoints (the
    ``EdgeBatch.multiplicity`` of those pairs)."""
    return sorted_unique(pairs, return_counts=True)[1]


def _new_batch(g: Graph, edges, create_vertices: bool) -> EdgeBatch:
    """The label batch as deduplicated canonical dense pairs, self-loops
    dropped.

    New labels become vertices in first-sight order, but only after every
    label has been checked.
    """
    labels = _label_pairs(edges)
    if labels.size and labels.min() < 0:  # before any vertex exists
        raise ValueError("vertex labels must be non-negative")
    loop = labels[:, 0] == labels[:, 1]
    loops = np.count_nonzero(loop)
    flat = (labels[~loop] if loops else labels).ravel()
    dense = g._dense_ids(flat)
    unknown = (dense < 0).nonzero()[0]
    if len(unknown):
        if not create_vertices:
            raise BatchError(f"unknown vertex {int(flat[unknown[0]])} "
                             f"in batch")
        dense[unknown] = [g._intern(x) for x in flat[unknown].tolist()]
    us, vs = dense[0::2], dense[1::2]
    n = max(g.vertex_count, 1)
    keys = sorted_unique(np.minimum(us, vs) * n + np.maximum(us, vs))
    pairs = np.empty((len(keys), 2), dtype=np.int32)
    pairs[:, 0], pairs[:, 1] = np.divmod(keys, n)
    return EdgeBatch(pairs=pairs, alive=np.ones(len(pairs), dtype=bool),
                     multiplicity=_endpoint_counts(pairs),
                     dropped_duplicates=len(us) - len(keys),
                     dropped_self_loops=loops)


def build_insert_batch(g: Graph, edges) -> EdgeBatch:
    """Batch of edges to insert.  New endpoint labels create vertices now
    (with core 0); edges already present in the graph are dropped.
    """
    batch = _new_batch(g, edges, create_vertices=True)
    present = g._has_dense(batch.pairs[:, 0], batch.pairs[:, 1])
    batch.dropped_existing = np.count_nonzero(present)
    if batch.dropped_existing:
        batch.pairs = batch.pairs[~present]
        batch.alive = batch.alive[~present]
        batch.multiplicity = _endpoint_counts(batch.pairs)
    return batch


def build_delete_batch(g: Graph, edges) -> EdgeBatch:
    """Batch of edges to delete; every edge must exist in the graph."""
    batch = _new_batch(g, edges, create_vertices=False)
    present = g._has_dense(batch.pairs[:, 0], batch.pairs[:, 1])
    if np.count_nonzero(present) < len(present):
        missing = [(g.label_of(u), g.label_of(v))
                   for u, v in batch.pairs[~present].tolist()]
        raise BatchError(f"edges not present in graph: {missing}")
    return batch


@dataclass
class RoundPlan:
    """One round's work: per core level, the selected level-k edges."""

    levels: list[int] = field(default_factory=list)
    # level -> (us, vs): int32 dense endpoints, canonical order
    level_edges: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    selected_indices: list[int] = field(default_factory=list)
    dropped_existing: int = 0

    @property
    def edge_count(self) -> int:
        return len(self.selected_indices)

    @property
    def edges_at_level(self) -> dict[int, list[tuple[int, int]]]:
        """The level edges as (u, v) lists, built on each access."""
        return edge_lists(self.level_edges)


def edge_lists(level_edges) -> dict[int, list[tuple[int, int]]]:
    """Per-level (us, vs) arrays as lists of (u, v) tuples."""
    return {k: list(zip(us.tolist(), vs.tolist()))
            for k, (us, vs) in level_edges.items()}


def plan_round(batch: EdgeBatch, cores: CoreMap, g: Graph | None = None,
               drop_existing: bool = False, backend=None) -> RoundPlan:
    """Draw one round plan from the batch under the current core numbers.

    Scans live pairs in ascending canonical order.  An edge is selected
    unless one of its endpoints sits at the edge's own level and is already
    covered by an earlier selection this round; a selected edge covers each
    of its endpoints whose core equals the level.  With ``drop_existing``
    (insert mode), pending edges that already exist in the graph are
    discarded with a counter instead of selected.  ``backend`` (as for
    ``get_backend``) reads the live pairs' edge existence (``has_edges``)
    and runs the scan (``plan_scan``).
    """
    be = get_backend(backend)
    idx = batch.alive.nonzero()[0]
    us, vs = batch.pairs[idx, 0], batch.pairs[idx, 1]
    exists = (g._has_dense(us, vs, backend=be)
              if drop_existing and g is not None else None)
    status = be.plan_scan(us, vs, cores.values, exists)
    done = idx[status != PENDING]
    batch.alive[done] = False
    picked = (status == SELECTED).nonzero()[0]
    selected = idx[picked]
    us, vs = us[picked], vs[picked]
    # group the selected pairs by level, canonical order within a level
    level = np.minimum(cores.values[us], cores.values[vs])
    order = level.argsort(kind="stable")
    level, us, vs = level[order], us[order], vs[order]
    bounds = ((level[1:] != level[:-1]).nonzero()[0] + 1).tolist()
    firsts = [0, *bounds] if len(level) else []
    plan = RoundPlan(levels=level[firsts].tolist(),
                     dropped_existing=len(done) - len(picked),
                     selected_indices=selected.tolist())
    for k, a, b in zip(plan.levels, firsts, [*bounds, len(level)]):
        plan.level_edges[k] = (us[a:b], vs[a:b])
    return plan


def restore_plan(batch: EdgeBatch, plan: RoundPlan):
    """Put a planned round's edges back (round rollback on task failure)."""
    batch.alive[plan.selected_indices] = True
