"""Pure-Python kernel backend: the reference lane, and the contract that
every kernel backend keeps.

A kernel backend is a module with eight functions:

- ``peel_kernel(n, starts, lens, pool)``: the core number of every vertex.
- ``insert_level``/``delete_level(starts, lens, pool, cores, k, eu, ev)``:
  the vertices of core level k whose core rises (falls) once the level's
  edges (eu, ev) are in (out of) the adjacency arrays, as (ascending id
  array, counter tuple).  A failed call raises the level's own error.
- ``run_levels(mode, starts, lens, pool, cores, level_edges, workers)``:
  the level task of every level of one round, at most ``workers`` at a
  time (rows as described at its definition below).  A failed level
  raises ``LevelTaskError`` naming it, once no level of the round is
  running; an interrupt propagates as it is.
- ``plan_scan(us, vs, cores)``: the round planner's greedy scan.
- ``remove_edges(starts, lens, pool, src, dst)``: edge removal from the
  adjacency blocks, in place.
- ``has_edges(starts, lens, pool, us, vs)``: edge lookup.
- ``parse_pairs(data)``: the edge-list reader for its plain subset.

Every backend has the same signatures and produces identical results
*and* counters, and every backend raises ValueError for the same bad
values.  Counter tuple layout:
    (visited, removed, neg_touches, sup_evals, csup_evals)

A backend may keep the level kernels' per-vertex scratch in an arena that
one thread owns and keeps across calls, so concurrent tasks never share
one.  Every call leaves its arena clean, and a call that fails in a way
that may leave a slot dirty drops its arena.

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

PENDING, SELECTED = 0, 1  # plan_scan status per pair
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
# per-level maintenance tasks


@dataclass
class TaskState:
    """State of one core level's traversal within one round.

    ``slack`` tracks each vertex's remaining support as the traversal rules
    vertices out; it may go negative for vertices touched before being
    visited, which the seeding rules account for.
    """

    level: int
    visited: set = field(default_factory=set)
    removed: set = field(default_factory=set)
    slack: dict = field(default_factory=dict)
    sup: dict = field(default_factory=dict)
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


def _support(adj, cores, st: TaskState, u: int) -> int:
    """Number of u's neighbors whose core is at least u's own (cached)."""
    s = st.sup.get(u)
    if s is None:
        cu = cores[u]
        s = 0
        for x in adj(u):
            if cores[x] >= cu:
                s += 1
        st.sup[u] = s
        st.sup_evals += 1
    return s


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
            elif cx == cu and _support(adj, cores, st, x) > cu:
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


def _check_level(starts, lens, cores, k, eu, ev):
    """The level kernels' input checks: lengths, endpoints in range, and
    each edge at level k (its lower endpoint core), so that the tasks of a
    round move disjoint vertex sets."""
    n = len(starts)
    _check_len("lens", lens, n)
    _check_len("cores", cores, n)
    _check_len("ev", ev, len(eu))
    _check_endpoints(n, eu, ev)
    if len(eu) and (np.minimum(cores[eu], cores[ev]) != k).any():
        raise ValueError(f"edge not at level {k}")


def insert_level(starts, lens, pool, cores, k, eu, ev):
    """Find the vertices of core level k that rise after inserting the
    level's edges (the edges must already be present in the arrays).

    Returns (ascending vertex id array, counter tuple).
    """
    _check_level(starts, lens, cores, k, eu, ev)
    adj = _Adj(starts, lens, pool)
    st = TaskState(k)
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
                        if _support(adj, cores, st, w) > k:
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
                    st.slack[w] = st.slack.get(w, 0) + \
                        _support(adj, cores, st, w)
                st.slack[w] -= 1
                st.neg_touches += 1
                if st.slack[w] < k and w not in st.removed:
                    stack.append(w)
                    st.removed.add(w)
                    st.removals += 1


def delete_level(starts, lens, pool, cores, k, eu, ev):
    """Find the vertices of core level k that fall after deleting the
    level's edges (the edges must already be gone from the arrays).

    Returns (ascending vertex id array, counter tuple).
    """
    _check_level(starts, lens, cores, k, eu, ev)
    adj = _Adj(starts, lens, pool)
    st = TaskState(k)
    eu_l = eu.tolist() if hasattr(eu, "tolist") else list(eu)
    ev_l = ev.tolist() if hasattr(ev, "tolist") else list(ev)

    def check(r):
        if r not in st.visited:
            _mark_visited(st, r)
            st.slack[r] = _support(adj, cores, st, r)
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


def _claim_order(level_edges) -> list[int]:
    """The levels heaviest first (most edges), ties by ascending level."""
    return sorted(level_edges, key=lambda k: (-len(level_edges[k][0]), k))


def run_levels(mode, starts, lens, pool, cores, level_edges, workers):
    """Run the level task of every level of a round: ``insert_level`` or
    ``delete_level`` (``mode`` "insert" or "delete") on each level k of
    ``level_edges`` (k -> (eu, ev)), with at most ``workers`` at a time.

    Returns, in ascending level order, one (level, moved ids, counter
    tuple, wall ns, thread-CPU ns, worker slot) per level; slot 0 is the
    calling thread.  A failed level raises ``LevelTaskError`` naming it,
    once no level is running.  Here the levels run one after another on
    the calling thread, heaviest first: the kernels hold the GIL.
    """
    _check_round(mode, workers)
    _check_len("lens", lens, len(starts))
    _check_len("cores", cores, len(starts))
    kernel = insert_level if mode == "insert" else delete_level
    rows = {}
    for k in _claim_order(level_edges):
        eu, ev = level_edges[k]
        wall, cpu = time.perf_counter_ns(), time.thread_time_ns()
        try:
            moved, counters = kernel(starts, lens, pool, cores, k, eu, ev)
        except Exception as exc:
            raise LevelTaskError(k, exc) from exc
        rows[k] = (k, moved, counters, time.perf_counter_ns() - wall,
                   time.thread_time_ns() - cpu, 0)
    return [rows[k] for k in sorted(rows)]


# ----------------------------------------------------------------------
# round planning and edge removal


def plan_scan(us, vs, cores) -> np.ndarray:
    """``plan_round``'s greedy scan, by its rule, over the live pairs
    (us, vs) in canonical order under ``cores``.  Returns an int8 status
    per pair: PENDING or SELECTED."""
    m = len(us)
    _check_len("vs", vs, m)
    _check_endpoints(len(cores), us, vs)
    status = [PENDING] * m
    covered: set[int] = set()
    for j, (u, v, cu, cv) in enumerate(zip(
            us.tolist(), vs.tolist(), cores[us].tolist(),
            cores[vs].tolist())):
        k = cu if cu < cv else cv
        if (cu == k and u in covered) or (cv == k and v in covered):
            continue
        status[j] = SELECTED
        if cu == k:
            covered.add(u)
        if cv == k:
            covered.add(v)
    return np.array(status, dtype=np.int8)


def remove_edges(starts, lens, pool, src, dst):
    """Remove the directed entries (src[i], dst[i]), grouped by ascending
    source with ascending targets, compacting each touched block in place
    and keeping the order of its remaining entries (``lens`` and ``pool``
    are written).  Raises ValueError, writing nothing, unless they are
    distinct entries of the blocks."""
    n = len(starts)
    _check_len("lens", lens, n)
    m = len(src)
    _check_len("dst", dst, m)
    _check_endpoints(n, src, dst)
    keys = src.astype(np.int64) * n + dst
    step = keys[1:] - keys[:-1]
    if (step < 0).any():
        raise ValueError("pairs to remove must be grouped by ascending "
                         "source with ascending targets")
    touched = src[np.diff(src, prepend=-1) != 0].astype(np.int64)
    at = starts[touched]
    blens = lens[touched].astype(np.int64)
    slots = _block_slots(at, blens)
    slot_keys = (touched * n).repeat(blens) + pool[slots]
    pos = keys.searchsorted(slot_keys)
    drop = keys[np.minimum(pos, m - 1)] == slot_keys
    if (step == 0).any() or np.count_nonzero(drop) != m:
        raise ValueError("edges to remove must be distinct edges of the "
                         "graph")
    kept = blens - _segment_counts(drop, blens)
    pool[_block_slots(at, kept)] = pool[slots[~drop]]
    lens[touched] = kept


def has_edges(starts, lens, pool, us, vs) -> np.ndarray:
    """Bool mask over the pairs (us[i], vs[i]): is vs[i] in the block of
    us[i]?  Raises ValueError unless every id lies in 0..len(starts)-1."""
    n = len(starts)
    _check_len("lens", lens, n)
    m = len(us)
    _check_len("vs", vs, m)
    _check_endpoints(n, us, vs)
    us = np.asarray(us, dtype=np.int64)
    blens = lens[us].astype(np.int64)
    match = pool[_block_slots(starts[us], blens)] \
        == np.asarray(vs, dtype=np.int64).repeat(blens)
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
