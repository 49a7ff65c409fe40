"""Pending edge batches and per-round edge selection.

A batch holds the not-yet-applied insertions or deletions as canonical
dense-id pairs.  It is built without looking at the graph's edges: the
engine checks its pairs against the graph once, when the batch runs.
Each maintenance round reads one "round plan" from it: for every core
level k present among the pending edges, a set of level-k edges in which
no vertex of core k is incident to more than one selected edge (the
strict rule).  That restriction caps every vertex's core change at one
per round, so the per-level sets can be processed concurrently.

The strict selection is one greedy scan over the live pairs in canonical
order, done by the kernel backend's ``plan_scan``, which also writes the
plan itself: the selected pairs grouped by ascending level as two flat id
arrays with the levels and their offsets (``_kernels_py``'s docstring).
The engine hands those arrays on to the graph's mutation and to the level
tasks as they are.  Planning writes nothing: the engine marks a plan's
pairs done once its round has committed.

An insert round may free one level.  After the strict scan, let h be the
highest level with a pending pair.  While a pair below h is pending, the
round holds level h back and takes none of its pairs, if the round bound
below allows it, and otherwise keeps the strict plan.  Once no pair below
h is pending, it takes every live pair, covered or not, and h is the
round's free level: every other level's pairs were all selected by the
scan.  Every insert task ends by peeling its own risers: at level k, at
threshold k + 2, a riser's support being its neighbours whose pre-round
core is above k or that also rose (``run_levels`` in ``_kernels_py``).
At a level where no vertex is covered twice the peel leaves nothing
(below), so only the free level's peel can report survivors.  If nothing
survives, every level's moved set is exact; otherwise the engine undoes
the round and plans it, and the rest of the batch, by the strict rule.

Why a strict level's peel is empty.  Let C be the old (k+1)-core, and
suppose the peel of the level-k risers leaves survivors S.  Counted in
the new graph, each vertex of S has at least k + 2 neighbours in S | C.
Each vertex x of S gained at most one round pair into S | C: such a pair
has both endpoints at core k or above, so it lies at level k and covers
x, whose core is k.  So in the old graph each vertex of S has at least
k + 1 neighbours in S | C, as each vertex of C has in C, and S | C lies
within the old (k+1)-core, a contradiction with S having core k.  Hence
S is empty.

Why an empty peel suffices.  Let G be the graph before the round and G'
after it, with old cores c and new cores c'.  Say some vertex rises by
two or more, and let j be the lowest old core among such vertices.  Let
T be the new (j+2)-core and C the old (j+1)-core.

- Peel T | C in G at threshold j + 1.  C survives, being G's
  (j+1)-core, and nothing outside it can, so the peel removes exactly
  T - C, which is not empty.  A vertex of T - C rose from at most j to at
  least j + 2, so by the choice of j its old core is j.
- The first vertex x removed has at most j neighbours in T | C in G, and,
  being in T, at least j + 2 in G'.  So at least two round pairs join x
  to T | C.  Their other endpoints have old core j or more, so both pairs
  lie at level j, and both cover x, whose core is j.
- The strict rule forbids that at every level but h, so j = h.

So no vertex of old core below h rises by two or more, and none enters
the (h+1)-core: the level-h risers are exact, since the level-h task
counts only neighbours of core h or more.  A vertex of T with old core h
rose by two and is a riser; one below h cannot be in T; so T lies within
the risers and the vertices of core above h.  Some vertex of old core j =
h moved by two: it is in T and keeps at least h + 2 neighbours in T, so
it survives the peel.  Hence an empty peel means no vertex moved by two,
and then every level's moved set is exact, as under the strict rule.

Why a peel of the level finds the same risers.  The free level's task
may find its risers by peeling all of V_h, the vertices of old core h,
at threshold h + 1 instead of traversing from its pairs (``level_peel``
in ``_kernels_py``): each vertex of V_h starts from its support in G'
(its neighbours of old core h or more) and loses one for each neighbour
in V_h that the peel removes.  So the survivors S are the largest set
within V_h whose every vertex has at least h + 1 neighbours in S or in
C, the old (h+1)-core.  Let R be V_h within the new (h+1)-core.

- S lies within R: S | C has minimum degree h + 1 or more in G'.
- R lies within S: the new (h+1)-core holds no vertex of old core below
  h, none of which rises by two (above), so it lies within R | C; each
  vertex of R has h + 1 neighbours in it, and the peel keeps R.

The traversal's risers are R too.  Take a connected part X of R.  If no
round pair joined X to X | C, then X | C would have had minimum degree
h + 1 in G as well, and X would have been in C.  Such a pair's lower
endpoint, which the task traverses from, lies in X, and the traversal
keeps the vertices it reaches that survive the same peel of its region
(Sariyüce et al.).  So the switch changes no moved set, and the riser
peel that follows decides the replay as before.

The round bound.  A batch of maximum multiplicity M commits at most
B = 2M - 1 rounds.  The scan blocks a pair only for an adjacent pair
before it in canonical order that it selected at the same level.  Give
each live pair e, before round r, the value r + a(e), a(e) being the
number of live pairs before e that share an endpoint with it; at the
start every value is at most 1 + 2(M - 1) = B.  A round that takes every
pair it selects lowers a(e) by one or more for each pair it leaves, so
no value grows.  A replayed round commits nothing and changes no value.
A hold-back round takes no pair of level h, so their values may grow by
one, and a round holds level h back only while every live level-h pair's
value is below B.  Every value thus stays at most B.  A pair taken in
round r had value r + a(e) >= r, so no round past B commits.  Holding
back without this check can exceed B: the rounds it spends are added to
the strict rounds that a replay then needs at level h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

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

    def __post_init__(self):
        # column-major, so that each endpoint column is one contiguous
        # array that every round's kernel calls read in place
        self.pairs = np.asfortranarray(self.pairs, dtype=np.int32)
        self.columns = (self.pairs[:, 0], self.pairs[:, 1])

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
    columns = np.empty((2, len(keys)), dtype=np.int32)
    np.divmod(keys, n, out=(columns[0], columns[1]), casting="unsafe")
    return EdgeBatch(pairs=columns.T, alive=np.ones(len(keys), dtype=bool),
                     multiplicity=sorted_unique(columns,
                                                return_counts=True)[1],
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
    """One round's work, as the flat plan of ``_kernels_py``'s docstring:
    per core level, the selected level-k edges."""

    ks: np.ndarray  # the levels, ascending (int64)
    offsets: np.ndarray  # level i's pairs: offsets[i] .. offsets[i+1] - 1
    us: np.ndarray  # int32 dense endpoints, grouped by level, canonical
    vs: np.ndarray  # order within a level
    # the selected pairs' positions in the batch, ascending
    selected_indices: np.ndarray
    # the level whose every live pair is taken, covered or not; None when
    # the plan keeps the strict rule at every level
    free_level: int | None = None

    @property
    def levels(self) -> list[int]:
        return self.ks.tolist()

    @property
    def edge_count(self) -> int:
        return len(self.selected_indices)

    @property
    def level_edges(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """level -> (us, vs): views of the level's pairs, built on each
        access."""
        bounds = self.offsets.tolist()
        return {k: (self.us[a:b], self.vs[a:b])
                for k, a, b in zip(self.levels, bounds, bounds[1:])}

    @property
    def edges_at_level(self) -> dict[int, list[tuple[int, int]]]:
        """The level edges as (u, v) lists, built on each access."""
        return edge_lists(self.level_edges)


def edge_lists(level_edges) -> dict[int, list[tuple[int, int]]]:
    """Per-level (us, vs) arrays as lists of (u, v) tuples."""
    return {k: list(zip(us.tolist(), vs.tolist()))
            for k, (us, vs) in level_edges.items()}


def _earlier_adjacent(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """For each of the canonical pairs (us, vs), in ascending order, the
    number of pairs before it that share an endpoint with it."""
    at = np.arange(len(us))
    by_v = vs.argsort(kind="stable")  # (v, u) order: u ascends per v
    sorted_vs = vs[by_v]
    ranked = np.empty_like(at)
    ranked[by_v] = at - sorted_vs.searchsorted(sorted_vs)
    return (at - us.searchsorted(us)  # (u, w) with w < v
            + sorted_vs.searchsorted(us, "right")
            - sorted_vs.searchsorted(us)  # (w, u), all before (u, v)
            + ranked)  # (w, v) with w < u


def plan_round(batch: EdgeBatch, cores: CoreMap, backend=None, *,
               free: bool = False, index: int = 1) -> RoundPlan:
    """Plan one round from the batch under the current core numbers.

    Scans live pairs in ascending canonical order.  An edge is selected
    unless one of its endpoints sits at the edge's own level and is already
    covered by an earlier selection this round; a selected edge covers each
    of its endpoints whose core equals the level.  With ``free`` (insert
    rounds) the highest level h with a pending pair is held back while a
    pair below it is pending and the round bound allows it, and freed when
    none is: the plan takes every live pair and sets ``free_level`` to h.
    ``index`` is the round's 1-based number among the batch's committed
    rounds, which the bound needs (see the module docstring).
    ``backend`` (as for ``get_backend``) runs the scan (``plan_scan``).
    Reads the batch and the cores and writes neither; the selected pairs
    stay live until the caller clears them in ``batch.alive``.
    """
    be = get_backend(backend)
    scan = partial(be.plan_scan, *batch.columns, batch.alive, cores.values)
    *plan, (low, high) = scan()
    free_level = None
    if free and high >= 0:  # some pair waits
        if low < high:
            live = batch.alive.nonzero()[0]
            us, vs = batch.pairs[live, 0], batch.pairs[live, 1]
            held = np.minimum(cores.values[us], cores.values[vs]) == high
            if (index + _earlier_adjacent(us, vs)[held].max()
                    < 2 * batch.max_multiplicity - 1):
                *plan, _ = scan(hold=high)
        else:
            *plan, _ = scan(free=high)
            free_level = high
    selected, ks, offsets, us, vs = plan
    return RoundPlan(ks, offsets, us, vs, selected, free_level)
