import itertools
from functools import partial

import numpy as np
import pytest

from coremaint import (BatchError, Graph, build_delete_batch, delete_edges,
                       peel, sequential_baseline)
from coremaint.kernels import available_backends
from support_oracle import networkx_core_numbers, support_degree


def er_like(n, p, seed):
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, 1)
    return Graph.from_edges(np.argwhere(mask), num_vertices=n,
                            dense_labels=True)


def run_delete(g, edges, **kw):
    cores = peel(g)
    batch = build_delete_batch(g, edges)
    log = delete_edges(g, cores, batch, **kw)
    return cores, log


def test_delete_pendant_edge():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], dense_labels=True)
    cores, log = run_delete(g, [(2, 3)])
    assert cores.values.tolist() == [2, 2, 2, 0]
    assert log.rounds[0].levels == (1,)
    assert cores == peel(g)


def test_delete_edge_of_k4_drops_all():
    g = Graph.from_edges(list(itertools.combinations(range(4), 2)),
                         dense_labels=True)
    cores, log = run_delete(g, [(0, 1)])
    assert cores.values.tolist() == [2, 2, 2, 2]
    assert log.rounds[0].changed == (0, 1, 2, 3)


def test_delete_bridge_between_triangles():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3)], dense_labels=True)
    cores, log = run_delete(g, [(0, 3)])
    assert cores.values.tolist() == [2] * 6
    assert log.changed_total == 0


def test_delete_all_edges_zeroes_cores():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], dense_labels=True)
    cores, _ = run_delete(g, list(g.edges()))
    assert cores.values.tolist() == [0, 0, 0, 0]
    assert g.edge_count == 0


def test_empty_batch_is_noop():
    g = Graph.from_edges([(0, 1), (1, 2)], dense_labels=True)
    before = peel(g)
    cores, log = run_delete(g, [])
    assert cores == before
    assert log.rounds_executed == 0


def test_edge_removed_after_batch_build_is_rejected():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], dense_labels=True)
    cores = peel(g)
    batch = build_delete_batch(g, [(0, 1), (2, 3)])
    g.remove_edge(2, 3)
    before = (sorted(g.edges()), cores.values.tolist(), batch.alive.tolist())
    with pytest.raises(ValueError):
        delete_edges(g, cores, batch)
    assert (sorted(g.edges()), cores.values.tolist(),
            batch.alive.tolist()) == before
    g.check_invariants()


@pytest.mark.parametrize("engine", [
    pytest.param(delete_edges, id="rounds"),
    pytest.param(partial(sequential_baseline, mode="delete"), id="baseline"),
])
def test_edge_removed_after_build_rejects_a_multi_round_batch(engine):
    # triangles 0-1-2 and 0-3-4 share vertex 0, so the batch takes two
    # rounds (or two one-edge runs); the edge that is gone would be
    # reached only in the second
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
                         dense_labels=True)
    cores = peel(g)
    batch = build_delete_batch(g, [(0, 1), (0, 3)])
    assert batch.max_multiplicity == 2
    g.remove_edge(0, 3)
    before = (sorted(g.edges()), cores.values.tolist(), batch.alive.tolist())
    with pytest.raises(BatchError, match=r"in graph: \[\(0, 3\)\]"):
        engine(g, cores, batch)
    assert (sorted(g.edges()), cores.values.tolist(),
            batch.alive.tolist()) == before
    g.check_invariants()


def test_isolated_vertices_survive_with_core_zero():
    g = Graph.from_edges([(0, 1)], num_vertices=4, dense_labels=True)
    cores, _ = run_delete(g, [(0, 1)])
    assert g.vertex_count == 4
    assert cores.values.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("backend", available_backends())
def test_random_batches_match_peel(backend):
    rng = np.random.default_rng(70)
    for trial in range(25):
        n = int(rng.integers(10, 80))
        g = er_like(n, rng.uniform(0.05, 0.25), int(rng.integers(1 << 30)))
        edges = list(g.edges())
        if not edges:
            continue
        count = int(rng.integers(1, min(len(edges), 30) + 1))
        idx = rng.choice(len(edges), size=count, replace=False)
        cores, log = run_delete(g, [edges[i] for i in idx],
                                backend=backend, audit=True)
        assert cores == peel(g), f"trial {trial}"
        assert cores == networkx_core_numbers(g), f"trial {trial}"
        assert log.audit_violations == []


def test_delete_never_increases_cores():
    rng = np.random.default_rng(71)
    g = er_like(50, 0.12, 13)
    before = peel(g).values.copy()
    edges = list(g.edges())
    idx = rng.choice(len(edges), size=30, replace=False)
    cores, _ = run_delete(g, [edges[i] for i in idx])
    assert (cores.values <= before).all()


def test_starved_vertices_always_fall():
    # after each round, any vertex left with fewer same-or-higher-core
    # neighbors than its level must appear in that round's fallen set
    rng = np.random.default_rng(72)
    g = er_like(40, 0.15, 21)
    edges = list(g.edges())
    idx = rng.choice(len(edges), size=25, replace=False)
    picked = [edges[i] for i in idx]

    replay = g.copy()
    cores = peel(replay)
    batch = build_delete_batch(replay, picked)
    log = delete_edges(replay, cores, batch)

    shadow = g.copy()
    shadow_cores = peel(shadow)
    for rec in log.rounds:
        for k in rec.levels:
            for u, v in rec.edges_at_level[k]:
                shadow.remove_edge(u, v)
        fallen = set(rec.changed)
        for v in range(shadow.vertex_count):
            k = int(shadow_cores.values[v])
            if k > 0 and k in rec.levels:
                if support_degree(shadow, shadow_cores, v) < k:
                    assert v in fallen
        shadow_cores.values[list(rec.changed)] -= 1
    assert shadow_cores == cores


def test_rounds_within_selection_bound():
    rng = np.random.default_rng(73)
    g = er_like(60, 0.15, 33)
    edges = list(g.edges())
    idx = rng.choice(len(edges), size=50, replace=False)
    cores, log = run_delete(g, [edges[i] for i in idx], audit=True)
    assert log.audit_violations == []
    assert log.rounds_executed <= max(1, 2 * log.max_multiplicity - 1)
    assert cores == peel(g)
