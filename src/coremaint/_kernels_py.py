"""Pure-Python kernel backend: the reference lane, and the contract that
every kernel backend keeps.

A kernel backend is a module with nine functions:

- ``peel_kernel(n, starts, lens, pool)``: the core number of every vertex.
- ``count_support(starts, lens, pool, cores)``: the support (below) of
  every vertex, counted from the blocks, as an int32 array.
- ``insert_level``/``delete_level(starts, lens, pool, cores, support, k,
  eu, ev)``: the vertices of core level k whose core rises (falls) once
  the level's edges (eu, ev) are in (out of) the adjacency arrays, as
  (ascending id array, counter tuple): ``run_levels`` on that one-level
  round with one worker, so ``support`` is written as there.  A failed
  call raises the level's own error.
- ``run_levels(mode, starts, lens, pool, cores, support, ks, offsets,
  us, vs, workers)``: the level task of every level of one round given
  as a flat plan (below), at most ``workers`` at a time; every insert
  task ends with a peel of its risers (``riser_peel``).  It keeps
  ``support`` up to date, in place (below).  Returns one moved-id array
  and one row per level (as described at its definition below).  A
  failed level raises ``LevelTaskError`` naming it, once no level of the
  round is running; an interrupt propagates as it is.
- ``plan_scan(us, vs, alive, cores, hold=-1, free=-1)``: the round
  planner's greedy scan over a batch's live pairs, returning the round as
  a flat plan.
- ``remove_edges(starts, lens, pool, us, vs)``: edge removal from the
  adjacency blocks, in place; a rejected removal leaves ``lens`` and
  ``pool`` byte-identical.  The compiled lane groups the directed
  entries by source with a stable radix sort of the sources, marks each
  group's targets in the calling thread's arena, validates and compacts
  each touched block in one scan, copying it to an undo buffer first,
  and puts back every block it touched when one lacks a target; when a
  buffer cannot be allocated it raises MemoryError, writing nothing.
- ``has_edges(starts, lens, pool, us, vs)``: edge lookup.
- ``parse_pairs(data)``: the edge-list reader for its plain subset.

A round's flat plan is four arrays: ``ks``, its levels ascending (int64);
``offsets``, one more than the levels, rising from 0 to the pair count
(int64); and ``us``, ``vs``, the round's pairs (int32), level i's being
those at positions ``offsets[i]`` to ``offsets[i + 1] - 1``, in canonical
order within a level.  ``plan_scan`` returns it, and the engine hands the
same arrays to ``Graph``'s mutation and to ``run_levels``, with no
repacking between layers.

A vertex's support is the number of its neighbours whose core is at
least its own (the max-core degree of Sariyüce et al., VLDB 2013).  The
level kernels prune with it and never count it: they read the support
the engine keeps.  ``run_levels`` takes it (int32, writable, one entry a
vertex) as it stood before the round's pairs went into (out of) the
arrays, under ``cores``, and writes it in place:

- each level task first moves the support of its pairs' endpoints at
  its level by one, up on insert and down on delete; a pair at level k
  changes no other vertex's support, so the tasks write disjoint entries;
- once every task is done, if the round commits (no level failed and no
  riser peel left survivors), the calling thread recounts each moved
  vertex from its block under the new cores (each moved id's core moved
  by one), and moves the support of each unmoved neighbour w of a moved
  x by one: up on insert where cores[w] is x's old core plus one, down on
  delete where cores[w] is x's old core.  The support then matches the
  arrays and the cores as the engine shifts them;
- otherwise the support is put back as it was found.

Every backend has the same signatures and produces identical results
*and* counters, and every backend raises ValueError for the same bad
values.  Counter tuple layout:
    (visited, removed, neg_touches, sup_evals, csup_evals)
``sup_evals`` counts the supports recounted from a block: a committed
level's moved count, else 0.  ``csup_evals`` counts the constrained
supports a level task counted.

A backend may keep the level kernels' per-vertex scratch in an arena that
one thread owns and keeps across calls, so concurrent tasks never share
one.  Every level task leaves its arena clean.  The compiled lane's arena
also holds each task's work lists, sized by their bounds, so a compiled
task allocates only when it grows its arena, and once that succeeds it
cannot fail.  The caller never sees an arena.

This lane keeps per-task state in dicts and sets and runs a round's
levels one after another on the calling thread; the compiled lane
(``_kernels_c``) mirrors these routines step for step.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field

import numpy as np

NAME = "python"

# the columns of a run_levels row (int64)
LEVEL, COUNT, OFFSET, COUNTERS, SUP_EVALS = 0, 1, 2, slice(3, 8), 6
WALL, CPU, WORKER, SURVIVORS, ROW = 8, 9, 10, 11, 12
_ORDER = ("levels must ascend, with offsets rising from 0 to the pair "
          "count")
_PLAIN_BYTES = b"0123456789 \t\r\n"  # what parse_pairs reads outside comments


class LevelTaskError(RuntimeError):
    """A level task of a round failed; ``__cause__`` is its error."""

    def __init__(self, level: int, cause: BaseException):
        super().__init__(f"level {level} task failed: {cause!r}")
        self.level = level


def _check_len(name: str, a, length: int):
    if len(a) != length:
        raise ValueError(f"{name} has length {len(a)}, expected {length}")


def _check_endpoints(n: int, *arrays):
    """Vertex ids must lie in 0..n-1.  Cast to unsigned, a negative id
    exceeds every n, so one max suffices."""
    ids = np.concatenate(arrays, dtype=np.uint64, casting="unsafe")
    if len(ids) and int(ids.max()) >= n:
        raise ValueError(f"edge endpoint outside 0..{n - 1}")


# ----------------------------------------------------------------------
# static peeling (bucket sort by effective degree, ties by ascending id)


def peel_kernel(n, starts, lens, pool) -> np.ndarray:
    _check_len("starts", starts, n)
    _check_len("lens", lens, n)
    cores = np.zeros(n, dtype=np.int32)
    if n == 0:
        return cores
    starts_l = starts.tolist()
    lens_l = lens.tolist()
    pool_l = pool.tolist()
    deg = list(lens_l)
    max_deg = max(deg)

    bin_start = [0] * (max_deg + 2)
    for d in deg:
        bin_start[d + 1] += 1
    for d in range(1, max_deg + 2):
        bin_start[d] += bin_start[d - 1]
    vert = [0] * n
    pos = [0] * n
    fill = list(bin_start)
    for v in range(n):
        p = fill[deg[v]]
        vert[p] = v
        pos[v] = p
        fill[deg[v]] += 1

    out = [0] * n
    for i in range(n):
        v = vert[i]
        dv = deg[v]
        out[v] = dv
        s = starts_l[v]
        for j in range(s, s + lens_l[v]):
            w = pool_l[j]
            dw = deg[w]
            if dw > dv:
                pw = pos[w]
                pf = bin_start[dw]
                u = vert[pf]
                if u != w:
                    vert[pw] = u
                    pos[u] = pw
                    vert[pf] = w
                    pos[w] = pf
                bin_start[dw] += 1
                deg[w] = dw - 1
    cores[:] = out
    return cores


# ----------------------------------------------------------------------
# support, and the per-level maintenance tasks


def count_support(starts, lens, pool, cores) -> np.ndarray:
    """Every vertex's support, the number of its neighbours whose core is
    at least its own, as an int32 array: one pass over the blocks."""
    n = len(starts)
    _check_len("lens", lens, n)
    _check_len("cores", cores, n)
    blens = lens.astype(np.int64)
    nbrs = pool[_block_slots(starts, blens)]
    mine = cores[nbrs] >= cores.repeat(blens)
    return _segment_counts(mine, blens).astype(np.int32)


@dataclass
class TaskState:
    """State of one core level's traversal within one round.

    ``slack`` tracks each vertex's remaining support as the traversal rules
    vertices out; it may go negative for vertices touched before being
    visited, which the seeding rules account for.  ``support`` is the
    round's maintained support, the level's pairs counted in.
    """

    level: int
    support: np.ndarray | None = None
    visited: set = field(default_factory=set)
    removed: set = field(default_factory=set)
    slack: dict = field(default_factory=dict)
    csup: dict = field(default_factory=dict)
    visit_order: list = field(default_factory=list)
    visits: int = 0
    removals: int = 0
    neg_touches: int = 0
    sup_evals: int = 0
    csup_evals: int = 0

    def counters(self) -> tuple[int, int, int, int, int]:
        return (self.visits, self.removals, self.neg_touches,
                self.sup_evals, self.csup_evals)


class _Adj:
    """Neighbor access over the graph's pooled adjacency arrays."""

    __slots__ = ("starts", "lens", "pool")

    def __init__(self, starts, lens, pool):
        self.starts = starts.tolist()
        self.lens = lens.tolist()
        self.pool = pool

    def __call__(self, v: int) -> list[int]:
        s = self.starts[v]
        return self.pool[s : s + self.lens[v]].tolist()


def _support(st: TaskState, u: int) -> int:
    """Number of u's neighbors whose core is at least u's own: read from
    the maintained support, never counted."""
    return int(st.support[u])


def _constrained_support(adj, cores, st: TaskState, u: int) -> int:
    """Number of u's neighbors able to back a rise of u's core (cached).

    A neighbor counts if its core is strictly higher, or equal while itself
    holding more same-or-higher-core neighbors than the level.
    """
    c = st.csup.get(u)
    if c is None:
        cu = cores[u]
        c = 0
        for x in adj(u):
            cx = cores[x]
            if cx > cu:
                c += 1
            elif cx == cu and _support(st, x) > cu:
                c += 1
        st.csup[u] = c
        st.csup_evals += 1
    return c


def _mark_visited(st: TaskState, v: int):
    st.visited.add(v)
    st.visit_order.append(v)
    st.visits += 1


def rule_out_cascade(adj, cores, st: TaskState, r: int):
    """Remove r as a rise candidate and propagate lost support.

    Every same-level neighbor of a removed vertex loses one unit of slack;
    a vertex whose slack falls to exactly the level is removed in turn.
    Untouched vertices may be driven negative, which later seeding adds
    back in.
    """
    k = st.level
    st.removed.add(r)
    st.removals += 1
    stack = [r]
    while stack:
        v = stack.pop()
        for w in adj(v):
            if cores[w] == k:
                st.slack[w] = st.slack.get(w, 0) - 1
                st.neg_touches += 1
                if st.slack[w] == k and w not in st.removed:
                    stack.append(w)
                    st.removed.add(w)
                    st.removals += 1


def _check_level(n, cores, k, eu, ev):
    """A level task's input checks: endpoints in 0..n-1, and each edge at
    level k (its lower endpoint core), so that the tasks of a round move
    disjoint vertex sets."""
    _check_endpoints(n, eu, ev)
    if len(eu) and (np.minimum(cores[eu], cores[ev]) != k).any():
        raise ValueError(f"edge not at level {k}")


def _insert_task(starts, lens, pool, cores, support, k, eu, ev):
    """Find the vertices of core level k that rise after inserting the
    level's edges (the edges must already be present in the arrays, and
    counted into ``support``).

    Returns (ascending vertex id array, counter tuple).
    """
    adj = _Adj(starts, lens, pool)
    st = TaskState(k, support)
    eu_l = eu.tolist() if hasattr(eu, "tolist") else list(eu)
    ev_l = ev.tolist() if hasattr(ev, "tolist") else list(ev)
    for a, b in zip(eu_l, ev_l):
        r = b if cores[a] >= cores[b] else a
        if r in st.visited or r in st.removed:
            continue
        c = _constrained_support(adj, cores, st, r)
        cur = st.slack.get(r, 0)
        st.slack[r] = c if cur >= 0 else cur + c
        _mark_visited(st, r)
        stack = [r]
        while stack:
            v = stack.pop()
            if st.slack[v] > k:
                for w in adj(v):
                    if cores[w] == k and w not in st.visited:
                        if _support(st, w) > k:
                            _mark_visited(st, w)
                            cw = _constrained_support(adj, cores, st, w)
                            st.slack[w] = st.slack.get(w, 0) + cw
                            stack.append(w)
            elif v not in st.removed:
                rule_out_cascade(adj, cores, st, v)
    rising = sorted(v for v in st.visit_order if v not in st.removed)
    return np.asarray(rising, dtype=np.int32), st.counters()


def drop_cascade(adj, cores, st: TaskState, r: int):
    """Remove r from its current core level and propagate the loss.

    Same-level neighbors are seeded with their support on first touch,
    then decremented; falling strictly below the level removes them too.
    """
    k = st.level
    st.removed.add(r)
    st.removals += 1
    stack = [r]
    while stack:
        v = stack.pop()
        for w in adj(v):
            if cores[w] == k:
                if w not in st.visited:
                    _mark_visited(st, w)
                    st.slack[w] = st.slack.get(w, 0) + _support(st, w)
                st.slack[w] -= 1
                st.neg_touches += 1
                if st.slack[w] < k and w not in st.removed:
                    stack.append(w)
                    st.removed.add(w)
                    st.removals += 1


def _delete_task(starts, lens, pool, cores, support, k, eu, ev):
    """Find the vertices of core level k that fall after deleting the
    level's edges (the edges must already be gone from the arrays, and
    counted out of ``support``).

    Returns (ascending vertex id array, counter tuple).
    """
    adj = _Adj(starts, lens, pool)
    st = TaskState(k, support)
    eu_l = eu.tolist() if hasattr(eu, "tolist") else list(eu)
    ev_l = ev.tolist() if hasattr(ev, "tolist") else list(ev)

    def check(r):
        if r not in st.visited:
            _mark_visited(st, r)
            st.slack[r] = _support(st, r)
        if r not in st.removed and st.slack[r] < k:
            drop_cascade(adj, cores, st, r)

    for a, b in zip(eu_l, ev_l):
        if cores[a] != cores[b]:
            check(b if cores[a] >= cores[b] else a)
        else:
            check(a)
            check(b)
    falling = sorted(v for v in st.visit_order if v in st.removed)
    return np.asarray(falling, dtype=np.int32), st.counters()


def _check_round(mode, workers):
    if mode not in ("insert", "delete"):
        raise ValueError(f"mode must be 'insert' or 'delete', got {mode!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def riser_peel(starts, lens, pool, cores, k, risers) -> int:
    """How many of the level-k ``risers`` (ascending ids, as
    ``insert_level`` returns them) survive a peel at threshold k + 2 in
    which a riser's support is its neighbours of core above k or among the
    risers.  It reads only the risers' blocks (a byte mask over the
    vertices marks the risers), counts every support in one numpy pass,
    and then walks only the entries that join two risers."""
    if not len(risers):
        return 0
    blens = lens[risers].astype(np.int64)
    nbrs = pool[_block_slots(starts[risers], blens)]
    is_riser = np.zeros(len(cores), dtype=bool)
    is_riser[risers] = True
    rose = is_riser[nbrs]
    support = _segment_counts((cores[nbrs] > k) | rose, blens).tolist()
    inner = _segment_counts(rose, blens)  # by riser index from here on
    firsts = (np.add.accumulate(inner) - inner).tolist()
    inner, mates = inner.tolist(), risers.searchsorted(nbrs[rose]).tolist()
    work = [i for i, s in enumerate(support) if s < k + 2]
    gone = set(work)
    while work:
        i = work.pop()
        for j in mates[firsts[i]:firsts[i] + inner[i]]:
            if j not in gone:
                support[j] -= 1
                if support[j] < k + 2:
                    gone.add(j)
                    work.append(j)
    return len(support) - len(gone)


def _check_plan(ks, offsets, us, vs):
    """The checks of a flat plan (module docstring), as lists."""
    _check_len("offsets", offsets, len(ks) + 1)
    _check_len("vs", vs, len(us))
    ks, offsets = ks.tolist(), offsets.tolist()
    if (offsets[0] or offsets[-1] != len(us)
            or any(b < a for a, b in zip(offsets, offsets[1:]))
            or any(b <= a for a, b in zip(ks, ks[1:]))
            or (ks and (ks[0] < 0 or ks[-1] >= 1 << 31))):
        raise ValueError(_ORDER)
    return ks, offsets


def _check_support(support, n: int):
    """``run_levels`` writes the support: it must cover the n vertices and
    be writable."""
    _check_len("support", support, n)
    if not support.flags.writeable:
        raise ValueError("support must be writable")


def _count_in(support, cores, k: int, eu, ev, step: int):
    """Move the support of the level-k endpoints of the pairs (eu, ev) by
    ``step``, in place."""
    ends = np.concatenate((eu, ev))
    np.add.at(support, ends[cores[ends] == k], step)


def _shift_support(starts, lens, pool, cores, support, moved, step: int):
    """Bring ``support`` up to date for the ``moved`` ids' cores moving by
    ``step`` (``cores`` are the old ones): recount each moved vertex from
    its block under the new cores, and move by ``step`` the support of each
    unmoved neighbour w of a moved x whose core is x's old core plus one
    (insert) or x's old core (delete)."""
    if not len(moved):
        return
    is_moved = np.zeros(len(cores), dtype=bool)
    is_moved[moved] = True
    blens = lens[moved].astype(np.int64)
    nbrs = pool[_block_slots(starts[moved], blens)]
    old = cores[moved].astype(np.int64).repeat(blens)
    near, both = cores[nbrs].astype(np.int64), is_moved[nbrs]
    support[moved] = _segment_counts(near + step * both >= old + step, blens)
    lone = ~both & (near == old + (step > 0))
    np.add.at(support, nbrs[lone], step)


def run_levels(mode, starts, lens, pool, cores, support, ks, offsets, us,
               vs, workers):
    """Run the level task of every level of a round (``mode`` "insert" or
    "delete") on each level ks[i] with its pairs of the flat plan (module
    docstring), with at most ``workers`` at a time, and keep ``support``
    up to date (the module docstring has the rule).  A task checks its
    pairs, counts them into the support, and finds the vertices of core
    level k that rise (fall) once they are in (out of) the arrays.  An
    insert task ends with ``riser_peel`` over its moved ids; at a level
    where the strict rule held, nothing survives (``batch``'s docstring).

    Returns (moved, rows).  ``moved`` holds every level's moved ids, level
    after level in ascending level order, each level's ascending.
    ``rows`` is an int64 array with a row per level, in ascending level
    order, whose columns are named above: the level, its moved count,
    their offset in ``moved``, the five counters, the task's wall and
    thread-CPU nanoseconds, its worker slot (0 is the calling thread), and
    the survivors of its riser peel (0 for a delete task).  A failed level
    raises ``LevelTaskError`` naming it (the lowest one, if several fail),
    once no level is running.  Here the levels run one after another on
    the calling thread, most pairs first, ties by ascending level: the
    kernels hold the GIL.
    """
    _check_round(mode, workers)
    n = len(starts)
    _check_len("lens", lens, n)
    _check_len("cores", cores, n)
    _check_support(support, n)
    ks, offsets = _check_plan(ks, offsets, us, vs)
    insert = mode == "insert"
    step = 1 if insert else -1
    task = _insert_task if insert else _delete_task
    rows = np.zeros((len(ks), ROW), dtype=np.int64)
    parts = [None] * len(ks)
    failed, counted = {}, []
    for i in sorted(range(len(ks)),
                    key=lambda i: (offsets[i] - offsets[i + 1], i)):
        k, pairs = ks[i], (us[offsets[i]:offsets[i + 1]],
                           vs[offsets[i]:offsets[i + 1]])
        wall, cpu = time.perf_counter_ns(), time.thread_time_ns()
        try:
            _check_level(n, cores, k, *pairs)
            _count_in(support, cores, k, *pairs, step)
            counted.append(i)
            moved, counters = task(starts, lens, pool, cores, support, k,
                                   *pairs)
            survivors = (riser_peel(starts, lens, pool, cores, k, moved)
                         if insert else 0)
        except Exception as exc:
            failed[i] = exc
            continue
        parts[i] = moved
        rows[i] = (k, len(moved), 0, *counters,
                   time.perf_counter_ns() - wall,
                   time.thread_time_ns() - cpu, 0, survivors)
    commit = not failed and not rows[:, SURVIVORS].any()
    if not commit:  # the support as it was found
        for i in counted:
            _count_in(support, cores, ks[i], us[offsets[i]:offsets[i + 1]],
                      vs[offsets[i]:offsets[i + 1]], -step)
    if failed:
        i = min(failed)
        raise LevelTaskError(ks[i], failed[i]) from failed[i]
    counts = rows[:, COUNT]
    rows[:, OFFSET] = np.cumsum(counts) - counts
    moved = np.concatenate([np.zeros(0, np.int32), *parts])
    if commit:
        _shift_support(starts, lens, pool, cores, support, moved, step)
        rows[:, SUP_EVALS] = counts
    return moved, rows


def _one_level(run, mode, starts, lens, pool, cores, support, k, eu, ev):
    """Level k alone: ``run`` (a backend's ``run_levels``) on the
    one-level round (k, eu, ev) with one worker.  Returns (moved ids,
    counter tuple); a failed level raises its own error."""
    try:
        moved, rows = run(mode, starts, lens, pool, cores, support,
                          np.array([k], dtype=np.int64),
                          np.array([0, len(eu)], dtype=np.int64), eu, ev, 1)
    except LevelTaskError as exc:
        raise exc.__cause__ from None
    return moved, tuple(rows[0, COUNTERS].tolist())


def insert_level(starts, lens, pool, cores, support, k, eu, ev):
    """The vertices of core level k that rise once the level's edges (eu,
    ev) are in the arrays, as (ascending id array, counter tuple): the
    one-level round of ``run_levels``, which writes ``support``."""
    return _one_level(run_levels, "insert", starts, lens, pool, cores,
                      support, k, eu, ev)


def delete_level(starts, lens, pool, cores, support, k, eu, ev):
    """As ``insert_level``, for the vertices that fall once the level's
    edges are out of the arrays."""
    return _one_level(run_levels, "delete", starts, lens, pool, cores,
                      support, k, eu, ev)


# ----------------------------------------------------------------------
# round planning and edge removal


def plan_scan(us, vs, alive, cores, hold=-1, free=-1):
    """``plan_round``'s greedy scan over the pairs (us, vs) marked
    ``alive``, in canonical order, under ``cores``.  A live pair at level
    ``hold`` waits and one at level ``free`` is taken; any other is taken
    unless an endpoint at the pair's level (its lower endpoint core) is
    covered by a pair taken before it, and a taken pair covers each
    endpoint at its level.

    Returns (picked, ks, offsets, us, vs, waiting): the taken pairs'
    indices, ascending (int64); the round as a flat plan (module
    docstring); and the lowest and highest level of a waiting live pair,
    (-1, -1) when none waits."""
    m = len(us)
    _check_len("vs", vs, m)
    _check_len("alive", alive, m)
    _check_endpoints(len(cores), us, vs)
    picked, levels, low, high = [], [], -1, -1
    covered: set[int] = set()
    live = alive.nonzero()[0]
    for j, u, v, cu, cv in zip(live.tolist(), us[live].tolist(),
                               vs[live].tolist(), cores[us[live]].tolist(),
                               cores[vs[live]].tolist()):
        k = cu if cu < cv else cv
        if k == hold or (k != free and ((cu == k and u in covered)
                                        or (cv == k and v in covered))):
            low = k if high < 0 else min(low, k)
            high = max(high, k)
            continue
        picked.append(j)
        levels.append(k)
        if cu == k:
            covered.add(u)
        if cv == k:
            covered.add(v)
    picked = np.array(picked, dtype=np.int64)
    by_level = np.argsort(levels, kind="stable")
    ks, counts = np.unique(levels, return_counts=True)
    offsets = np.zeros(len(ks) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    chosen = picked[by_level]
    return (picked, ks.astype(np.int64), offsets,
            us[chosen].astype(np.int32), vs[chosen].astype(np.int32),
            (low, high))


def remove_edges(starts, lens, pool, us, vs):
    """Remove the edges {us[i], vs[i]}: both directed entries of each,
    taken in order of source and target, compacting each touched block in
    place and keeping the order of its remaining entries (``lens`` and
    ``pool`` are written).  Raises ValueError, writing nothing, unless they
    are distinct edges of the graph."""
    n = len(starts)
    _check_len("lens", lens, n)
    m = len(us)
    _check_len("vs", vs, m)
    _check_endpoints(n, us, vs)
    keys = np.sort(np.concatenate((us, vs), dtype=np.int64) * n
                   + np.concatenate((vs, us)))
    src, dst = np.divmod(keys, n)
    touched = src[np.diff(src, prepend=-1) != 0]
    at = starts[touched]
    blens = lens[touched].astype(np.int64)
    slots = _block_slots(at, blens)
    slot_keys = (touched * n).repeat(blens) + pool[slots]
    pos = keys.searchsorted(slot_keys)
    drop = keys[np.minimum(pos, 2 * m - 1)] == slot_keys
    if (keys[1:] == keys[:-1]).any() or np.count_nonzero(drop) != 2 * m:
        raise ValueError("edges to remove must be distinct edges of the "
                         "graph")
    kept = blens - _segment_counts(drop, blens)
    pool[_block_slots(at, kept)] = pool[slots[~drop]]
    lens[touched] = kept


def has_edges(starts, lens, pool, us, vs) -> np.ndarray:
    """Bool mask over the pairs (us[i], vs[i]): is the one endpoint in the
    block of the other?  The shorter block is searched, that of us[i] on a
    tie.  Raises ValueError unless every id lies in 0..len(starts)-1."""
    n = len(starts)
    _check_len("lens", lens, n)
    m = len(us)
    _check_len("vs", vs, m)
    _check_endpoints(n, us, vs)
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    swap = lens[vs] < lens[us]
    us, vs = np.where(swap, vs, us), np.where(swap, us, vs)
    blens = lens[us].astype(np.int64)
    match = pool[_block_slots(starts[us], blens)] == vs.repeat(blens)
    return _segment_counts(match, blens) > 0


# ----------------------------------------------------------------------
# edge-list text (the plain subset; ``graph`` parses the rest)


def _drop_comment_lines(data: bytes) -> tuple[bytes, int] | None:
    """``data`` with every comment line emptied (its line end kept), plus
    their count; None if a ``#`` follows a non-blank byte of its line."""
    kept, comments, pos = [], 0, 0
    mark = data.find(b"#")
    while mark >= 0:
        start = data.rfind(b"\n", 0, mark) + 1
        if data[start:mark].strip(b" \t"):
            return None
        end = data.find(b"\n", mark)
        end = len(data) if end < 0 else end
        kept.append(data[pos:start])
        pos = end
        comments += 1
        mark = data.find(b"#", end)
    kept.append(data[pos:])
    return b"".join(kept), comments


def parse_pairs(data: bytes) -> tuple[np.ndarray, int] | None:
    """The label pairs of a whole edge-list buffer as an (m, 2) int64
    array, plus the comment-line count; None ("not mine") when ``data`` is
    outside the plain subset read here, which ``graph``'s line parser then
    reads.  The subset: ASCII only; lines end in LF or CRLF; a line is
    blank (spaces and tabs), a comment (first non-blank byte ``#``), or
    two fields of decimal digits, each at most int64 max.  The comments
    are dropped first; the rest goes through ``np.loadtxt`` in one
    call."""
    if not data.isascii() or data.count(b"\r") != data.count(b"\r\n"):
        return None
    stripped = _drop_comment_lines(data)
    if stripped is None:
        return None
    data, comments = stripped
    if data.translate(None, _PLAIN_BYTES):
        return None
    if not data.strip():  # loadtxt warns on input without rows
        return np.zeros((0, 2), dtype=np.int64), comments
    try:
        pairs = np.loadtxt(io.BytesIO(data), dtype=np.int64, comments=None,
                           ndmin=2)
    except ValueError:  # a ragged line or a label beyond int64
        return None
    return (pairs, comments) if pairs.shape[1] == 2 else None


# ----------------------------------------------------------------------
# pooled adjacency blocks (shared with ``graph``)


def _block_slots(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Pool indices of the first ``lens[i]`` slots of each block, block
    after block (int64 ``lens``)."""
    ends = np.add.accumulate(lens)
    total = ends[-1] if len(ends) else 0
    return np.arange(total) + (starts - ends + lens).repeat(lens)


def _segment_counts(mask: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """True entries of ``mask`` in each of its consecutive segments of
    lengths ``lens`` (int64)."""
    total = np.zeros(len(mask) + 1, dtype=np.int64)
    np.add.accumulate(mask, dtype=np.int64, out=total[1:])
    ends = np.add.accumulate(lens)
    return total[ends] - total[ends - lens]
