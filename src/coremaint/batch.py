"""Pending edge batches and per-round edge selection.

A batch holds the not-yet-applied insertions or deletions as canonical
dense-id pairs.  It is built without looking at the graph's edges: the
engine checks its pairs against the graph once, when the batch runs.
Each maintenance round reads one "round plan" from it: for every core
level k present among the pending edges, a set of level-k edges in which
no vertex of core k is incident to more than one selected edge.  That
restriction is what caps every vertex's core change at one per round, so
the per-level sets can be processed concurrently.

The selection is one greedy scan over the live pairs in canonical order,
done by the kernel backend's ``plan_scan``.  The scan only marks each pair
selected or pending; the plan is assembled here with numpy.  Planning
writes nothing: the engine marks a plan's pairs done once its round has
committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels_py import SELECTED
from .graph import Graph, label_pairs, sorted_unique
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

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def remaining(self) -> int:
        return np.count_nonzero(self.alive)

    @property
    def max_multiplicity(self) -> int:
        return int(self.multiplicity.max()) if len(self.multiplicity) else 0


def _new_batch(g: Graph, edges, create_vertices: bool) -> EdgeBatch:
    """The label batch as deduplicated canonical dense pairs, self-loops
    dropped.

    New labels become vertices in first-sight order, but only after every
    label has been checked.
    """
    labels = label_pairs(edges)  # checked before any vertex exists
    loop = labels[:, 0] == labels[:, 1]
    loops = np.count_nonzero(loop)
    flat = (labels[~loop] if loops else labels).ravel()
    if create_vertices:
        dense = g._intern(flat)
    else:
        dense = g._dense_ids(flat)
        unknown = (dense < 0).nonzero()[0]
        if len(unknown):
            raise BatchError(f"unknown vertex {int(flat[unknown[0]])} "
                             f"in batch")
    us, vs = dense[0::2], dense[1::2]
    n = max(g.vertex_count, 1)
    keys = sorted_unique(np.minimum(us, vs) * n + np.maximum(us, vs))
    pairs = np.empty((len(keys), 2), dtype=np.int32)
    pairs[:, 0], pairs[:, 1] = np.divmod(keys, n)
    return EdgeBatch(pairs=pairs, alive=np.ones(len(pairs), dtype=bool),
                     multiplicity=sorted_unique(pairs, return_counts=True)[1],
                     dropped_duplicates=len(us) - len(keys),
                     dropped_self_loops=loops)


def build_insert_batch(g: Graph, edges) -> EdgeBatch:
    """Batch of edges to insert.  New endpoint labels create vertices now
    (with core 0); ``insert_edges`` drops the pairs already in the graph.
    """
    return _new_batch(g, edges, create_vertices=True)


def build_delete_batch(g: Graph, edges) -> EdgeBatch:
    """Batch of edges to delete.  Every endpoint label must exist;
    ``delete_edges`` rejects the batch if an edge is not in the graph."""
    return _new_batch(g, edges, create_vertices=False)


@dataclass
class RoundPlan:
    """One round's work: per core level, the selected level-k edges."""

    levels: list[int] = field(default_factory=list)
    # level -> (us, vs): int32 dense endpoints, canonical order
    level_edges: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    # the selected pairs' positions in the batch, ascending
    selected_indices: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.intp))

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


def plan_round(batch: EdgeBatch, cores: CoreMap, backend=None) -> RoundPlan:
    """Plan one round from the batch under the current core numbers.

    Scans live pairs in ascending canonical order.  An edge is selected
    unless one of its endpoints sits at the edge's own level and is already
    covered by an earlier selection this round; a selected edge covers each
    of its endpoints whose core equals the level.  ``backend`` (as for
    ``get_backend``) runs the scan (``plan_scan``).  Reads the batch and
    the cores and writes neither; the selected pairs stay live until the
    caller clears them in ``batch.alive``.
    """
    idx = batch.alive.nonzero()[0]
    us, vs = batch.pairs[idx, 0], batch.pairs[idx, 1]
    status = get_backend(backend).plan_scan(us, vs, cores.values)
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
                     selected_indices=selected)
    for k, a, b in zip(plan.levels, firsts, [*bounds, len(level)]):
        plan.level_edges[k] = (us[a:b], vs[a:b])
    return plan

