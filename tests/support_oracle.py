"""Reference computations written independently of the kernels.

``naive_core_numbers`` and ``networkx_core_numbers`` check ``peel`` and
the engines; the engine tests check each round's raised and fallen
vertices against the label-level support counts.  None of this may share
code with ``_kernels_py`` or ``_kernels.c``.
"""

import networkx as nx
import numpy as np

from coremaint import CoreMap, Graph


def naive_core_numbers(g: Graph) -> CoreMap:
    """Independent reference: repeatedly delete a vertex of minimum degree.

    A vertex's core is the largest minimum degree seen up to the moment it
    is deleted.  Quadratic; intended for small graphs and tests only.
    """
    n = g.vertex_count
    starts, lens, pool = g.adjacency_arrays()
    adj = {v: set(pool[starts[v] : starts[v] + lens[v]].tolist())
           for v in range(n)}
    cores = np.zeros(n, dtype=np.int32)
    running_max = 0
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        running_max = max(running_max, len(adj[v]))
        cores[v] = running_max
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
    return CoreMap(cores)


def networkx_core_numbers(g: Graph) -> CoreMap:
    """Core numbers by ``networkx.core_number``, indexed by dense id."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.vertex_count))
    nxg.add_edges_from(g.edge_array().tolist())
    core = nx.core_number(nxg)
    return CoreMap(np.array([core[v] for v in range(g.vertex_count)],
                            dtype=np.int32))


def support_degree(g: Graph, cores: CoreMap, u: int) -> int:
    """Number of u's neighbors with core at least core(u)."""
    cu = cores.of(g, u)
    return sum(1 for w in g.neighbors(u) if cores.of(g, w) >= cu)


def constrained_support(g: Graph, cores: CoreMap, u: int,
                        sup_cache: dict | None = None) -> int:
    """Number of u's neighbors that could back a one-step rise of u.

    A neighbor w counts when core(w) > core(u), or core(w) == core(u) and
    w itself has more than core(u) same-or-higher-core neighbors.  The
    optional ``sup_cache`` (label -> support degree) is filled on demand.
    """
    cache = {} if sup_cache is None else sup_cache
    cu = cores.of(g, u)
    count = 0
    for w in g.neighbors(u):
        cw = cores.of(g, w)
        if cw > cu:
            count += 1
        elif cw == cu:
            if w not in cache:
                cache[w] = support_degree(g, cores, w)
            if cache[w] > cu:
                count += 1
    return count
