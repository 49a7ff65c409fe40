import itertools

import numpy as np
import pytest

from coremaint import Graph, peel
from coremaint.kernels import available_backends
from support_oracle import naive_core_numbers, networkx_core_numbers


def complete_graph(n):
    return Graph.from_edges(list(itertools.combinations(range(n), 2)),
                            num_vertices=n, dense_labels=True)


def test_empty_graph():
    g = Graph()
    assert len(peel(g)) == 0
    assert len(naive_core_numbers(g)) == 0


def test_triangle_all_core_two():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], dense_labels=True)
    assert peel(g).values.tolist() == [2, 2, 2]


def test_triangle_with_pendant():
    # frozen from the min-degree-deletion reference on this 4-vertex graph
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], dense_labels=True)
    expected = [2, 2, 2, 1]
    assert naive_core_numbers(g).values.tolist() == expected
    assert peel(g).values.tolist() == expected


def test_complete_graph_k5():
    assert peel(complete_graph(5)).values.tolist() == [4] * 5


def test_path_cores_are_one():
    g = Graph.from_edges([(0, 1), (1, 2)], dense_labels=True)
    assert naive_core_numbers(g).values.tolist() == [1, 1, 1]
    assert peel(g).values.tolist() == [1, 1, 1]


def test_two_disjoint_triangles():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                         dense_labels=True)
    assert naive_core_numbers(g).values.tolist() == [2] * 6


def test_isolated_vertices_core_zero():
    g = Graph.from_edges([(0, 1)], num_vertices=5, dense_labels=True)
    assert peel(g).values.tolist() == [1, 1, 0, 0, 0]


@pytest.mark.parametrize("backend", available_backends())
def test_random_graph_oracle_agreement(backend):
    rng = np.random.default_rng(50)
    mask = np.triu(rng.random((50, 50)) < 0.1, 1)
    g = Graph.from_edges(np.argwhere(mask), num_vertices=50,
                         dense_labels=True)
    cores = peel(g, backend=backend)
    assert cores == naive_core_numbers(g)
    assert cores == networkx_core_numbers(g)


def test_peel_value_independent_of_vertex_order():
    rng = np.random.default_rng(8)
    mask = np.triu(rng.random((40, 40)) < 0.12, 1)
    edges = np.argwhere(mask)
    g = Graph.from_edges(edges, num_vertices=40, dense_labels=True)
    base = peel(g).values
    perm = rng.permutation(40)
    g2 = Graph.from_edges(perm[edges], num_vertices=40, dense_labels=True)
    assert np.array_equal(peel(g2).values[perm], base)


def test_edge_add_remove_monotone():
    rng = np.random.default_rng(99)
    mask = np.triu(rng.random((30, 30)) < 0.15, 1)
    g = Graph.from_edges(np.argwhere(mask), num_vertices=30,
                         dense_labels=True)
    before = peel(g).values.copy()
    non_edges = [(u, v) for u in range(30) for v in range(u + 1, 30)
                 if not g.has_edge(u, v)]
    u, v = non_edges[int(rng.integers(len(non_edges)))]
    g.add_edge(u, v)
    after = peel(g).values
    assert (after >= before).all()
    g.remove_edge(u, v)
    assert (peel(g).values <= after).all()
