"""Mutable undirected simple graph with dense internal vertex ids.

Vertices are addressed by non-negative integer labels.  Labels are remapped
to dense internal ids (0..n-1) on first sight, so per-vertex engine state
can live in flat arrays.  Adjacency is stored in one shared pool array with
per-vertex (start, length, capacity) blocks.

Edges are added, removed and looked up a whole array of pairs at a time
(one maintenance round's edges per call, in any order), touching the
blocks of the touched vertices only.  Removal is one call of the kernel
backend's ``remove_edges``, which compacts each touched block in place,
keeping the order of its remaining entries, and leaves every block as it
was unless the pairs are distinct edges.  Lookup is the backend's
``has_edges``.  Addition is numpy only: it first moves every block that
would overflow to the pool tail in one pass, each with its capacity
doubled until the new entries fit, then writes all new entries with one
scatter, each block's in the block order below (its larger new
neighbours ascending, then its smaller ones); the vacated slots are not
reused.  Mutations must happen in exclusive phases; between mutations
the arrays may be read concurrently.  ``adjacency_arrays`` returns the
same view objects until a vertex is added or an array is replaced, so
the compiled lane makes their C pointers once per array
(``_kernels_c``).  Every edge mutation (``from_edges``, ``_add_dense``,
``_remove_dense``, and so ``add_edge`` and ``remove_edge``) gives the
graph a fresh ``edge_state`` token; a copy shares its original's, and
adding isolated vertices keeps it.  ``CoreMap`` keeps the token that its
support was counted for.

``from_edges`` builds the pool with one sort.  Each vertex's block lists
its larger neighbours in ascending order, then its smaller neighbours in
ascending order; the sort key of the directed entry (src, dst) is
``src * 2n + dst`` when ``dst > src`` and ``src * 2n + n + dst`` otherwise.
Labels are mapped to dense ids in label order: dense labels (the largest
below twice the number of edge endpoints) through a presence table and
a cumulative sum, sparser ones through the inverse of one argsort; later
labels get the next ids in first-sight order.

``Graph._label_index`` maps labels to ids in one of three forms, chosen by
one rule: ``None`` while the labels are exactly 0..n-1 (a label is its
id); an int32 table (``table[label]`` is the id, -1 for an absent label)
while the largest label is below twice the vertex count, so the table
holds at most two slots a vertex; otherwise the labels in ascending order
with their ids, searched by bisection.  The index is built once with the
graph and kept by every copy.  Every lookup returns int64 ids in every form: callers build int64 keys
such as ``u * n + v`` from them.  Copies share the index, so it is
replaced, never written in place.

Integer-pair text (edge lists; core files in ``static_core``) has one
reader, ``read_edge_pairs``.  A path, the text as ``bytes``, ``bytearray``
or ``memoryview``, and a binary stream are read whole, once, and alike.
Bytes in a plain subset (ASCII digits, spaces, tabs and ``\n`` or
``\r\n`` line ends, plus comment lines: first non-blank byte ``#``, any
ASCII after it) are parsed in one pass, the kernel backend's
``parse_pairs``: one C loop on the compiled lane, ``np.loadtxt`` after
the comments are dropped on the Python lane.
Anything else (signs, underscores, a lone ``\r``, an inline ``#``,
non-ASCII bytes, a label too large for int64, a line without exactly two
fields) goes to the line parser, decoded as ``open(path, "rt",
errors="surrogateescape")`` decodes a UTF-8 file; so does an iterable of
lines.  The line parser is the reference and the only code that raises
``EdgeListParseError``.
"""

from __future__ import annotations

import io
import operator
import os
from dataclasses import dataclass

import numpy as np

from ._kernels_py import _block_slots
from .kernels import get_backend

_POOL_DTYPE = np.int32
_MIN_BLOCK = 4


class SelfLoopError(ValueError):
    pass


class EdgeListParseError(ValueError):
    def __init__(self, line_no: int, line: str):
        super().__init__(f"malformed edge list line {line_no}: {line!r}")
        self.line_no = line_no


@dataclass(frozen=True)
class Edge:
    """Undirected edge; endpoints are stored in canonical (min, max) order."""

    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise SelfLoopError(f"self-loop at vertex {self.u}")
        if self.u > self.v:
            u, v = self.u, self.v
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)

    def as_pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass
class LoadStats:
    edges: int = 0
    comment_lines: int = 0
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0


_MAX_LABEL = int(np.iinfo(np.int64).max)
_NEGATIVE = "vertex labels must be non-negative"
_TOO_LARGE = f"vertex labels must lie in the int64 range 0..{_MAX_LABEL}"


def _label(x) -> int:
    """``x`` as a vertex label: a Python or numpy integer in 0..2**63-1.
    Raises ValueError for anything else, floats and strings included (they
    are never truncated or parsed)."""
    try:
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"vertex labels must be integers, got {x!r}") \
            from None
    if x < 0:
        raise ValueError(_NEGATIVE)
    if x > _MAX_LABEL:
        raise ValueError(_TOO_LARGE)
    return x


def _as_pair(e) -> tuple[int, int]:
    try:
        u, v = e.as_pair() if isinstance(e, Edge) else e
    except (TypeError, ValueError):
        raise ValueError("edges must be vertex pairs") from None
    return _label(u), _label(v)


def label_pairs(edges) -> np.ndarray:
    """``edges`` as an (m, 2) int64 array of label pairs.

    ``edges`` is an (m, 2) integer array, or an iterable of pairs or
    ``Edge`` objects whose labels ``_label`` accepts.  Raises ValueError
    for anything else.
    """
    try:
        arr = np.asarray(edges)
    except ValueError:  # items of different lengths
        arr = None
    if arr is None or (arr.dtype.kind not in "iu"
                       and not isinstance(edges, np.ndarray)):
        # Edge objects, iterators, and anything numpy did not read as
        # integers (floats, strings, labels of 2**64 or more, or of 2**63
        # or more beside others, which it reads as floats): pair by pair
        arr = np.array([_as_pair(e) for e in edges], dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"vertex labels must be integers, got {arr.dtype}")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be vertex pairs")
    if arr.dtype == np.uint64 and arr.max() > _MAX_LABEL:
        raise ValueError(_TOO_LARGE)
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0:
        raise ValueError(_NEGATIVE)
    return arr


class Graph:
    """Undirected simple graph over integer vertex labels."""

    def __init__(self):
        self._starts = np.zeros(0, dtype=np.int64)
        self._lens = np.zeros(0, dtype=np.int32)
        self._caps = np.zeros(0, dtype=np.int32)
        self._pool = np.zeros(0, dtype=_POOL_DTYPE)
        self._pool_used = 0
        self._labels = np.zeros(0, dtype=np.int64)  # label of each dense id
        # label -> dense id: None, an int32 table or (sorted labels, their
        # ids), as the module docstring says; replaced, never written
        self._label_index = None
        self.vertex_count = 0
        self.edge_count = 0
        # a token that every edge mutation replaces: equal tokens mean
        # equal edge sets (``CoreMap.counted_for`` keeps one)
        self.edge_state = object()
        self._views = self._adjacency_views()

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_edges(cls, edges, num_vertices: int | None = None,
                   dense_labels: bool = False) -> "Graph":
        """Bulk constructor from label pairs, as ``label_pairs`` reads them.

        Self-loops and duplicate edges are dropped (counts on ``load_stats``).
        With ``dense_labels`` the labels are taken as internal ids directly
        (0..n-1); otherwise distinct labels are remapped in sorted order.
        ``num_vertices`` (only with ``dense_labels``; a non-negative
        integer, else ValueError) forces trailing isolated vertices to
        exist.
        """
        if num_vertices is not None and not dense_labels:
            raise ValueError("num_vertices requires dense_labels")
        g = cls()
        stats = LoadStats()
        arr = label_pairs(edges)

        if dense_labels:
            if num_vertices is None:
                num_vertices = int(arr.max()) + 1 if arr.size else 0
            try:
                n = operator.index(num_vertices)
            except TypeError:
                raise ValueError(f"num_vertices must be an integer, got "
                                 f"{num_vertices!r}") from None
            if n < 0:
                raise ValueError("num_vertices must be non-negative")
            if arr.size and arr.max() >= n:
                raise ValueError("edge endpoint outside 0..num_vertices-1")
            dense = arr
            g._labels = np.arange(n)
        else:
            dense, g._labels = _rank_labels(arr.ravel())
            n = len(g._labels)
            dense = dense.reshape(-1, 2)
            if n and g._labels[-1] != n - 1:  # labels not already 0..n-1
                g._label_index = _index_of(g._labels)

        loops = dense[:, 0] == dense[:, 1]
        stats.dropped_self_loops = int(np.count_nonzero(loops))
        if stats.dropped_self_loops:
            dense = dense[~loops]
        lo = np.minimum(dense[:, 0], dense[:, 1])
        hi = np.maximum(dense[:, 0], dense[:, 1])
        # both directions of every edge, keyed so that sorting puts each
        # block in its final order (module docstring); duplicates collide
        two_n = 2 * n
        keys = sorted_unique(np.concatenate((lo * two_n + hi,
                                             hi * two_n + (lo + n))))
        stats.dropped_duplicates = (2 * len(lo) - len(keys)) // 2
        m = len(keys) // 2
        stats.edges = m

        deg = np.bincount(keys // two_n, minlength=n)
        g._lens = deg.astype(np.int32)
        g._caps = g._lens.copy()
        g._starts = np.zeros(n, dtype=np.int64)
        if n:
            np.cumsum(deg[:-1], out=g._starts[1:])
        g._pool = (keys % n).astype(_POOL_DTYPE)
        g._pool_used = 2 * m
        g.vertex_count = n
        g.edge_count = m
        g.load_stats = stats
        return g

    def copy(self) -> "Graph":
        g = Graph()
        g._starts = self._starts.copy()
        g._lens = self._lens.copy()
        g._caps = self._caps.copy()
        g._pool = self._pool.copy()
        g._pool_used = self._pool_used
        g._labels = self._labels.copy()
        g._label_index = self._label_index  # never written in place
        g.vertex_count = self.vertex_count
        g.edge_count = self.edge_count
        g.edge_state = self.edge_state  # the same edges
        return g

    # ------------------------------------------------------------------
    # label mapping

    def labels(self) -> np.ndarray:
        """Read-only int64 view of every vertex's label, by dense id."""
        view = self._labels[: self.vertex_count]
        view.flags.writeable = False
        return view

    def label_of(self, dense: int) -> int:
        """Label of a dense id; IndexError outside 0..n-1."""
        if not 0 <= dense < self.vertex_count:
            raise IndexError(f"vertex id {dense} outside "
                             f"0..{self.vertex_count - 1}")
        return int(self._labels[dense])

    def dense_of(self, label: int) -> int:
        """Dense id for a label; KeyError if the label is unknown, and
        ValueError if it is not one (``_label``)."""
        label = _label(label)
        index = self._label_index
        if index is None:
            if label < self.vertex_count:
                return label
        elif isinstance(index, tuple):
            known, ids = index
            pos = known.searchsorted(label)
            if pos < len(known) and known[pos] == label:
                return int(ids[pos])
        elif label < len(index) and index[label] >= 0:
            return int(index[label])
        raise KeyError(label)

    def has_vertex(self, label: int) -> bool:
        try:
            self.dense_of(label)
            return True
        except KeyError:
            return False

    def _dense_ids(self, labels: np.ndarray) -> np.ndarray:
        """Dense ids of an int64 array of non-negative labels, as int64;
        -1 where a label is unknown."""
        index = self._label_index
        if index is None:
            return np.where(labels < self.vertex_count, labels, -1)
        if not isinstance(index, tuple):  # a table over 0..len(index)-1
            out = index.take(labels, mode="clip").astype(np.int64)
            out[labels >= len(index)] = -1
            return out
        known, ids = index
        # searching the needles in ascending order walks ``known`` forward
        order = np.argsort(labels)
        needles = labels[order]
        pos = np.minimum(np.searchsorted(known, needles), len(known) - 1)
        out = np.empty(len(labels), dtype=np.int64)
        out[order] = np.where(known[pos] == needles, ids[pos], -1)
        return out

    def _intern(self, labels: np.ndarray) -> np.ndarray:
        """Dense ids of an int64 array of labels that ``_label`` accepts;
        unknown labels become new vertices, numbered in first-sight
        order."""
        dense = self._dense_ids(labels)
        unknown = (dense < 0).nonzero()[0]
        if not len(unknown):
            return dense
        fresh, first, inverse = np.unique(labels[unknown], return_index=True,
                                          return_inverse=True)
        n, k = self.vertex_count, len(fresh)
        ids = n + first.argsort().argsort()  # fresh[i]'s id, by sight
        dense[unknown] = ids[inverse]
        self._grow_vertex_arrays(n + k)
        self._labels[ids] = fresh
        self.vertex_count = n + k
        index = self._label_index
        if isinstance(index, tuple) and \
                max(index[0][-1], fresh[-1]) >= 2 * (n + k):
            known, old = index  # still sparse: merge the new labels in
            at = np.searchsorted(known, fresh)
            self._label_index = (np.insert(known, at, fresh),
                                 np.insert(old, at, ids))
        elif index is not None or (fresh != ids).any():
            self._label_index = _index_of(self._labels[: n + k])
        return dense

    def _grow_vertex_arrays(self, n: int):
        """Make room for ``n`` vertices in every per-vertex array."""
        if n > len(self._lens):
            grow = max(n, 2 * len(self._lens), 16)
            for name in ("_starts", "_lens", "_caps", "_labels"):
                old = getattr(self, name)
                new = np.zeros(grow, dtype=old.dtype)
                new[: len(old)] = old
                setattr(self, name, new)

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel-facing views, trimmed to the live vertex range: the
        same objects until a vertex is added or an array replaced."""
        starts, lens, pool = views = self._views
        if (pool is not self._pool or len(starts) != self.vertex_count
                or starts.base is not self._starts
                or lens.base is not self._lens):
            views = self._views = self._adjacency_views()
        return views

    def _adjacency_views(self):
        n = self.vertex_count
        return self._starts[:n], self._lens[:n], self._pool

    # ------------------------------------------------------------------
    # mutation (exclusive phases only)

    def add_edge(self, u: int, v: int) -> str:
        """Insert the undirected edge {u, v}; returns "new" or "duplicate".

        Unknown endpoints are created as isolated vertices first.
        """
        u, v = _label(u), _label(v)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        pair = self._intern(np.array([u, v]))
        if self._has_dense(pair[:1], pair[1:])[0]:
            return "duplicate"
        self._add_dense(pair[:1], pair[1:])
        return "new"

    def remove_edge(self, u: int, v: int) -> str:
        """Delete the undirected edge {u, v}; returns "removed" or "absent"."""
        u, v = _label(u), _label(v)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        try:
            pair = [self.dense_of(u)], [self.dense_of(v)]
        except KeyError:
            return "absent"
        if not self._has_dense(*pair)[0]:
            return "absent"
        self._remove_dense(*pair)
        return "removed"

    def _add_dense(self, us, vs):
        """Insert the edges {us[i], vs[i]} between existing dense ids.

        The pairs must be distinct, absent from the graph and free of
        self-loops; every caller has checked that already.
        """
        n = self.vertex_count
        src, dst = _directed(us, vs)
        keys = src * (2 * n) + dst  # in block order (module docstring)
        keys[dst < src] += n
        keys.sort()
        src = keys // (2 * n)
        touched, counts = sorted_unique(src, return_counts=True)
        lens = self._lens[touched].astype(np.int64)
        need = lens + counts
        over = need > self._caps[touched]
        if over.any():
            self._relocate(touched[over], need[over])
        # the i-th new entry of a vertex goes to slot start + len + i
        self._pool[_block_slots(self._starts[touched] + lens, counts)] = \
            keys % n
        self._lens[touched] = need
        self.edge_count += len(src) // 2
        self.edge_state = object()

    def _relocate(self, vs: np.ndarray, need: np.ndarray):
        """Move the blocks of ``vs`` to the pool tail, each capacity doubled
        (at least ``_MIN_BLOCK``) until it holds ``need`` entries."""
        cap = np.maximum(2 * self._caps[vs].astype(np.int64), _MIN_BLOCK)
        short = cap < need
        while short.any():
            cap[short] *= 2
            short = cap < need
        ends = self._pool_used + cap.cumsum()
        end = int(ends[-1])
        if end > len(self._pool):
            pool = np.zeros(max(end, 2 * len(self._pool), 64),
                            dtype=_POOL_DTYPE)
            pool[: self._pool_used] = self._pool[: self._pool_used]
            self._pool = pool
        lens = self._lens[vs].astype(np.int64)
        self._pool[_block_slots(ends - cap, lens)] = \
            self._pool[_block_slots(self._starts[vs], lens)]
        self._starts[vs] = ends - cap
        self._caps[vs] = cap
        self._pool_used = end

    def _remove_dense(self, us, vs, backend=None):
        """Delete the edges {us[i], vs[i]}; each touched block is compacted
        in place and keeps the order of its remaining entries.

        Raises ValueError, changing nothing, unless the pairs are distinct
        edges of the graph.  ``backend`` (as for ``get_backend``) does the
        removal.
        """
        us = np.ascontiguousarray(us, dtype=np.int32)
        get_backend(backend).remove_edges(
            *self.adjacency_arrays(), us,
            np.ascontiguousarray(vs, dtype=np.int32))
        self.edge_count -= len(us)
        self.edge_state = object()

    def _has_dense(self, us, vs, backend=None) -> np.ndarray:
        """Bool mask over the pairs: is {us[i], vs[i]} an edge?
        ``backend`` (as for ``get_backend``) does the lookup."""
        return get_backend(backend).has_edges(
            *self.adjacency_arrays(),
            np.ascontiguousarray(us, dtype=np.int32),
            np.ascontiguousarray(vs, dtype=np.int32))

    # ------------------------------------------------------------------
    # queries

    def has_edge(self, u: int, v: int) -> bool:
        u, v = _label(u), _label(v)  # both checked, even if u is unknown
        try:
            pair = [self.dense_of(u)], [self.dense_of(v)]
        except KeyError:
            return False
        return bool(self._has_dense(*pair)[0])

    def degree(self, u: int) -> int:
        return int(self._lens[self.dense_of(u)])

    def neighbors(self, u: int) -> list[int]:
        """Neighbor labels of u, in internal storage order."""
        du = self.dense_of(u)
        s = self._starts[du]
        return self._labels[self._pool[s : s + self._lens[du]]].tolist()

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array of canonical dense-id pairs."""
        starts, lens, pool = self.adjacency_arrays()
        lens = lens.astype(np.int64)
        src = np.arange(self.vertex_count).repeat(lens)
        dst = pool[_block_slots(starts, lens)].astype(np.int64)
        keep = src < dst
        return np.stack([src[keep], dst[keep]], axis=1)

    def edges(self):
        """Yield each undirected edge once as a canonical label pair."""
        ends = self._labels[self.edge_array()]
        yield from zip(ends.min(axis=1).tolist(), ends.max(axis=1).tolist())

    def check_invariants(self):
        """Assert block bounds, symmetry, simplicity, and the edge-count
        identity."""
        n = self.vertex_count
        starts, lens, pool = self.adjacency_arrays()
        lens = lens.astype(np.int64)
        caps = self._caps[:n].astype(np.int64)
        assert (lens <= caps).all(), "block longer than its capacity"
        used = np.flatnonzero(caps)
        order = used[np.argsort(starts[used], kind="stable")]
        ends = starts[order] + caps[order]
        assert (ends[:-1] <= starts[order][1:]).all(), "overlapping blocks"
        assert not len(ends) or ends[-1] <= self._pool_used, \
            "block beyond the used pool"
        src = np.arange(n).repeat(lens)
        dst = pool[_block_slots(starts, lens)].astype(np.int64)
        assert ((dst >= 0) & (dst < n)).all(), "neighbor id out of range"
        assert not (src == dst).any(), "self-loop"
        keys = np.sort(src * n + dst)
        assert not (keys[1:] == keys[:-1]).any(), "parallel edge"
        assert np.array_equal(keys, np.sort(dst * n + src)), \
            "asymmetric adjacency"
        assert len(src) == 2 * self.edge_count, "edge_count mismatch"


def sorted_unique(a, return_counts: bool = False):
    """The distinct values of ``a`` in ascending order, as ``np.unique``
    returns them, optionally with their counts.

    Sort and compare neighbours: numpy 2.x's ``np.unique`` hashes integer
    input, which is far slower than sorting on large arrays.
    """
    s = np.sort(a, axis=None)
    first = np.empty(len(s) + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:-1])
    uniq = s[first[:-1]]
    if not return_counts:
        return uniq
    bounds = first.nonzero()[0]
    return uniq, bounds[1:] - bounds[:-1]


def _rank_labels(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's dense id, its label's rank among the distinct labels,
    and the distinct labels in ascending order.  Dense labels (the largest
    below twice the number of entries) are ranked with a presence table,
    sparser ones by sort."""
    top = int(flat.max()) + 1 if len(flat) else 0
    if top <= 2 * len(flat):
        return _rank_by_table(flat, top)
    return _rank_by_sort(flat)


def _rank_by_table(flat: np.ndarray, top: int):
    """``_rank_labels`` by a table over 0..top-1: mark, count, look up."""
    seen = np.zeros(top, dtype=bool)
    seen[flat] = True
    rank = seen.cumsum()
    rank -= 1
    return rank[flat], np.flatnonzero(seen)


def _rank_by_sort(flat: np.ndarray):
    """``_rank_labels`` through the inverse of one argsort."""
    order = flat.argsort()
    ranked = flat[order]
    new = np.empty(len(ranked), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    dense = np.empty_like(flat)
    dense[order] = new.cumsum() - 1
    return dense, ranked[new]


def _index_of(labels: np.ndarray):
    """``Graph._label_index`` of ``labels`` (by dense id; not 0..n-1): the
    table while the largest label is below twice their count, else the
    sorted pair."""
    top = int(labels.max()) + 1
    if top > 2 * len(labels):
        order = labels.argsort(kind="stable")  # linear on sorted labels
        return labels[order], order
    table = np.full(top, -1, dtype=np.int32)
    table[labels] = np.arange(len(labels), dtype=np.int32)
    return table


def _directed(us, vs) -> tuple[np.ndarray, np.ndarray]:
    """Both directions of the pairs, as int64 (source, target) arrays."""
    return (np.concatenate((us, vs), dtype=np.int64),
            np.concatenate((vs, us), dtype=np.int64))


# ----------------------------------------------------------------------
# edge-list text format (SNAP-style: "u v" per line, '#' comments)


def _text_lines(data: bytes):
    """The lines of ``data``, decoded as the module docstring says."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                            errors="surrogateescape")


def _read_lines(source) -> tuple[np.ndarray, int]:
    """The line parser: reads every input the array path does not, and is
    the only reader that raises ``EdgeListParseError``.  ``source`` is the
    text as bytes or an iterable of lines (text or bytes)."""
    if isinstance(source, bytes):
        source = _text_lines(source)
    pairs: list[tuple[int, int]] = []
    comments = 0
    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", "surrogateescape")
        if not raw.isascii():
            try:
                raw.encode("utf-8")  # fails on an escaped non-UTF-8 byte
            except UnicodeEncodeError:
                raise EdgeListParseError(line_no, raw.rstrip("\n")) from None
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments += 1
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(line_no, raw.rstrip("\n"))
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(line_no, raw.rstrip("\n")) from None
        if not (0 <= u <= _MAX_LABEL and 0 <= v <= _MAX_LABEL):
            raise EdgeListParseError(line_no, raw.rstrip("\n"))
        pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), comments


def read_edge_pairs(source) -> tuple[np.ndarray, int]:
    """Raw label pairs from edge-list text as an (m, 2) int64 array, in
    text order, plus the comment-line count.  ``source`` is a path, the
    text as ``bytes``, ``bytearray`` or ``memoryview``, a binary stream
    (read to its end) or an iterable of lines (module docstring).  No
    dedup or self-loop handling here; that is the consumer's business.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        data = source.read()
    elif isinstance(source, (bytes, bytearray, memoryview)):
        data = bytes(source)
    else:
        return _read_lines(source)
    fast = get_backend().parse_pairs(data)
    return fast if fast is not None else _read_lines(data)


def load_edge_list(source) -> Graph:
    """The graph of edge-list text from a ``read_edge_pairs`` source;
    ``g.load_stats`` holds the edge, comment-line and drop counts."""
    pairs, comments = read_edge_pairs(source)
    g = Graph.from_edges(pairs)
    g.load_stats.comment_lines = comments
    return g


def _write_rows(path, first: np.ndarray, second: np.ndarray):
    """Write "first second" integer rows, one per line, to a path or a text
    stream; the bytes are those of ``np.savetxt(..., fmt="%d")``."""
    text = "".join([f"{a} {b}\n" for a, b in zip(first.tolist(),
                                                 second.tolist())])
    if isinstance(path, (str, os.PathLike)):
        with open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path.write(text)


def save_edge_list(g: Graph, path):
    """Write the graph back out, one canonical label pair per line."""
    n = g.vertex_count
    labels = g.labels()
    by_label = np.argsort(labels)
    rank = np.empty(n, dtype=np.int64)  # rank order is label order
    rank[by_label] = np.arange(n)
    dense = g.edge_array()
    a, b = rank[dense[:, 0]], rank[dense[:, 1]]
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    ordered = labels[by_label]
    _write_rows(path, ordered[keys // n], ordered[keys % n])
