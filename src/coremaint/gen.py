"""Synthetic graph generators and update-batch samplers.

Both generators are deterministic per seed.  The random graph draws a
binomial edge count and then that many distinct vertex pairs, which is
equivalent to including every pair independently; the preferential
attachment model grows from a clique, each new vertex attaching a fixed
number of edges to distinct targets drawn proportionally to degree.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, sorted_unique

# sample_new_edges gives up after this many candidates per requested pair
MAX_TRIES_FACTOR = 1000


def _decode_pairs(t: np.ndarray, n: int) -> np.ndarray:
    """Map linear indices over {(u, v): u < v < n} back to pairs.

    Index t covers row u's pairs in the half-open range [S(u), S(u+1))
    with S(u) = u*(2n-u-1)/2.  The float solve is corrected exactly.
    """
    tf = t.astype(np.float64)
    b = 2.0 * n - 1.0
    u = np.floor((b - np.sqrt(b * b - 8.0 * tf)) / 2.0).astype(np.int64)
    u = np.clip(u, 0, n - 2)

    def row_start(x):
        return x * (2 * n - x - 1) // 2

    for _ in range(4):  # float error is at most a couple of rows
        too_high = row_start(u) > t
        too_low = row_start(u + 1) <= t
        if not (too_high.any() or too_low.any()):
            break
        u = u - too_high.astype(np.int64) + too_low.astype(np.int64)
    v = u + 1 + (t - row_start(u))
    return np.stack([u, v], axis=1)


def generate_er(n: int, deg: float, seed: int) -> Graph:
    """Random graph on n vertices with expected edge count deg * n.

    ``deg`` counts edges per vertex (m/n), the same convention as the
    attachment count of :func:`generate_ba`, so both models produce the
    same number of edges for the same parameters.
    """
    if n < 1 or deg < 0:
        raise ValueError("need n >= 1 and deg >= 0")
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0 or deg == 0:
        return Graph.from_edges([], num_vertices=n, dense_labels=True)
    p = min(1.0, deg * n / total_pairs)
    rng = np.random.default_rng(seed)
    m = int(rng.binomial(total_pairs, p))
    picked = sorted_unique(rng.integers(0, total_pairs, size=m,
                                        dtype=np.int64))
    while len(picked) < m:  # top up collisions
        extra = rng.integers(0, total_pairs, size=m - len(picked),
                             dtype=np.int64)
        picked = sorted_unique(np.concatenate([picked, extra]))
    pairs = _decode_pairs(picked, n)
    return Graph.from_edges(pairs, num_vertices=n, dense_labels=True)


def generate_ba(n: int, attach: int, seed: int) -> Graph:
    """Preferential attachment: seed clique on attach+1 vertices, then each
    new vertex attaches ``attach`` edges to distinct degree-weighted targets.
    """
    if attach < 1 or n < attach + 1:
        raise ValueError("need n >= attach + 1 and attach >= 1")
    rng = np.random.default_rng(seed)
    m0 = attach + 1
    edges: list[tuple[int, int]] = [(i, j) for i in range(m0)
                                    for j in range(i + 1, m0)]
    repeated: list[int] = [v for v in range(m0) for _ in range(attach)]
    for v in range(m0, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(targets):
            edges.append((t, v))
            repeated.append(t)
        repeated.extend([v] * attach)
    return Graph.from_edges(np.asarray(edges, dtype=np.int64),
                            num_vertices=n, dense_labels=True)


def generate_graph(model: str, n: int, deg: int, seed: int) -> Graph:
    if model == "er":
        return generate_er(n, deg, seed)
    if model == "ba":
        return generate_ba(n, deg, seed)
    raise ValueError(f"unknown graph model {model!r} (choose er or ba)")


# ----------------------------------------------------------------------
# update-batch sampling


def _check_level(level, cores):
    if level is not None and cores is None:
        raise ValueError("sampling at a core level needs cores")


def sample_new_edges(g: Graph, count: int, seed: int,
                     level: int | None = None,
                     cores=None) -> list[tuple[int, int]]:
    """Sample ``count`` distinct vertex pairs not present in the graph,
    as label pairs.  With ``level`` set, only pairs whose smaller endpoint
    core equals it are accepted (requires ``cores``).
    """
    _check_level(level, cores)
    n = g.vertex_count
    if n < 2:
        raise ValueError("graph too small to sample non-edges")
    rng = np.random.default_rng(seed)
    vals = cores.values if cores is not None else None
    out: dict[tuple[int, int], None] = {}  # dense pairs, in draw order
    tries = 0
    limit = MAX_TRIES_FACTOR * max(count, 1)
    while len(out) < count:
        if tries == limit:
            raise RuntimeError(
                f"could not sample {count} non-edges after {limit} tries")
        # candidates in chunks: the same draws, in the same order, as one
        # u, v draw per candidate
        size = min(limit - tries, max(2 * (count - len(out)), 64))
        tries += size
        draws = rng.integers(n, size=2 * size)
        lo = np.minimum(draws[0::2], draws[1::2])
        hi = np.maximum(draws[0::2], draws[1::2])
        ok = lo != hi
        ok[ok] = ~g._has_dense(lo[ok], hi[ok])
        if level is not None:
            ok &= np.minimum(vals[lo], vals[hi]) == level
        for u, v in zip(lo[ok].tolist(), hi[ok].tolist()):
            out[u, v] = None
            if len(out) == count:
                break
    dense = np.array(list(out), dtype=np.int64).reshape(-1, 2)
    return list(map(tuple, g.labels()[dense].tolist()))


def sample_existing_edges(g: Graph, count: int, seed: int,
                          level: int | None = None, cores=None
                          ) -> list[tuple[int, int]]:
    """Sample ``count`` distinct existing edges, as label pairs.  With
    ``level`` set, only edges at that core level are candidates."""
    _check_level(level, cores)
    rng = np.random.default_rng(seed)
    dense = g.edge_array()
    if level is not None:
        vals = cores.values
        lv = np.minimum(vals[dense[:, 0]], vals[dense[:, 1]])
        dense = dense[lv == level]
    if count > len(dense):
        raise ValueError(
            f"asked for {count} edges but only {len(dense)} candidates")
    idx = rng.choice(len(dense), size=count, replace=False)
    return list(map(tuple, g.labels()[dense[idx]].tolist()))

