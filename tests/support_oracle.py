"""Label-level support counts, written independently of the kernels.

The engine tests check each round's raised and fallen vertices against
these, so they must not share code with ``_kernels_py`` or ``_kernels.c``.
"""

from coremaint import CoreMap, Graph


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
