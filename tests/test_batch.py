import numpy as np
import pytest

from coremaint import (BatchError, Graph, build_delete_batch,
                       build_insert_batch, delete_edges, insert_edges, peel,
                       plan_round)
from coremaint.static_core import CoreMap


def graph_with_cores(core_by_vertex):
    """Edgeless graph plus a hand-set core map; planning only reads cores."""
    n = len(core_by_vertex)
    g = Graph.from_edges([], num_vertices=n, dense_labels=True)
    return g, CoreMap(np.asarray(core_by_vertex, dtype=np.int32))


def test_batches_accept_edge_objects():
    from coremaint import Edge

    g, cores = graph_with_cores([1, 1, 1])
    b = build_insert_batch(g, [Edge(1, 0), (1, 2)])
    assert b.size == 2
    assert b.pairs.tolist() == [[0, 1], [1, 2]]


def test_one_edge_per_level_vertex():
    # two pending edges at vertex 0 (core k); far endpoints above the level
    g, cores = graph_with_cores([1, 3, 3])
    b = build_insert_batch(g, [(0, 1), (0, 2)])
    plan = plan_round(b, cores)
    assert plan.edges_at_level == {1: [(0, 1)]}  # canonical-order first
    assert plan.edge_count == 1


def test_equal_core_edge_covers_both_endpoints():
    g, cores = graph_with_cores([1, 1, 1])
    b = build_insert_batch(g, [(0, 1), (1, 2)])
    plan = plan_round(b, cores)
    assert plan.edges_at_level[1] == [(0, 1)]
    assert plan.edge_count == 1  # (1, 2) left for the next round


def test_shared_higher_core_endpoint_allowed():
    g, cores = graph_with_cores([1, 1, 2])
    b = build_insert_batch(g, [(0, 2), (1, 2)])
    plan = plan_round(b, cores)
    assert plan.edges_at_level[1] == [(0, 2), (1, 2)]


def test_plan_round_single_edge_batch():
    g, cores = graph_with_cores([2, 2])
    b = build_insert_batch(g, [(0, 1)])
    plan = plan_round(b, cores)
    assert plan.levels == [2]
    assert plan.edge_count == 1


def test_multiplicity_forces_rounds():
    g, cores = graph_with_cores([1, 4, 4, 4])
    b = build_insert_batch(g, [(0, 1), (0, 2), (0, 3)])
    assert b.max_multiplicity == 3
    rounds = 0
    while b.remaining:
        plan = plan_round(b, cores)
        assert plan.edge_count == 1  # vertex 0 serializes its edges
        b.alive[plan.selected_indices] = False
        rounds += 1
    assert rounds == 3


def test_multiplicity_counts_batch_endpoints_only():
    g = Graph.from_edges([(5, 7)], num_vertices=1000, dense_labels=True)
    b = build_insert_batch(g, [(5, 900), (5, 7), (7, 900), (8, 999),
                               (900, 5)])
    # (900, 5) repeats (5, 900); the graph's edges do not count, but the
    # batch is built without looking them up, so its (5, 7) does
    assert sorted(b.multiplicity.tolist()) == [1, 1, 2, 2, 2]
    assert b.max_multiplicity == 2
    log = insert_edges(g, peel(g), b)
    assert (log.dropped_existing, log.edges_applied) == (1, 3)
    b = build_insert_batch(g, [(5, 7)])
    assert b.max_multiplicity == 1
    assert insert_edges(g, peel(g), b).dropped_existing == 1


def test_distinct_levels_go_in_one_round():
    g, cores = graph_with_cores([1, 1, 4, 4, 9, 9])
    b = build_insert_batch(g, [(0, 1), (2, 3), (4, 5)])
    plan = plan_round(b, cores)
    assert plan.levels == [1, 4, 9]
    assert plan.edge_count == 3


def test_plan_invariants_on_random_batches():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = 40
        cores = CoreMap(rng.integers(0, 5, size=n).astype(np.int32))
        g = Graph.from_edges([], num_vertices=n, dense_labels=True)
        pairs = set()
        while len(pairs) < 30:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        b = build_insert_batch(g, sorted(pairs))
        vals = cores.values
        while b.remaining:
            us, vs = b.pairs[b.alive].T
            pending = set(np.minimum(vals[us], vals[vs]).tolist())
            plan = plan_round(b, cores)
            assert plan.edge_count > 0  # progress every round
            assert set(plan.levels) == pending  # no level waits a round
            for k in plan.levels:
                covered = set()
                for u, v in plan.edges_at_level[k]:
                    assert min(vals[u], vals[v]) == k
                    for x in (u, v):
                        if vals[x] == k:
                            assert x not in covered
                            covered.add(x)
            b.alive[plan.selected_indices] = False


def test_insert_batch_dedup_and_existing():
    g = Graph.from_edges([(0, 1)], dense_labels=True)
    b = build_insert_batch(g, [(1, 2), (2, 1), (0, 1), (3, 3)])
    assert b.size == 2  # (0, 1) and (1, 2): the graph is not looked at yet
    assert b.dropped_duplicates == 1
    assert b.dropped_self_loops == 1
    log = insert_edges(g, peel(g), b)
    assert (log.dropped_existing, log.edges_applied) == (1, 1)


def test_insert_batch_creates_vertices():
    g = Graph.from_edges([(0, 1)], dense_labels=True)
    build_insert_batch(g, [(5, 6)])
    assert g.vertex_count == 4  # labels 5 and 6 now exist, isolated


def test_insert_batch_bad_label_creates_no_vertex():
    g = Graph.from_edges([(0, 1), (1, 2)], dense_labels=True)
    with pytest.raises(ValueError):
        build_insert_batch(g, [(5, 6), (7, -1)])
    assert g.vertex_count == 3


def test_delete_batch_requires_present_edges():
    g = Graph.from_edges([(0, 1), (1, 2)], dense_labels=True)
    batch = build_delete_batch(g, [(0, 1), (0, 2)])
    with pytest.raises(BatchError) as err:
        delete_edges(g, peel(g), batch)
    assert "(0, 2)" in str(err.value)


def test_delete_batch_names_missing_labels_and_mutates_nothing():
    g = Graph.from_edges([(10, 20), (20, 30), (30, 40)])
    edges, lens = sorted(g.edges()), g.adjacency_arrays()[1].copy()
    cores = peel(g)
    core_values = cores.values.copy()
    batch = build_delete_batch(g, [(20, 10), (40, 10), (30, 20)])
    with pytest.raises(BatchError) as err:
        delete_edges(g, cores, batch)
    assert "edges not present in graph: [(10, 40)]" in str(err.value)
    assert batch.alive.all()
    assert np.array_equal(cores.values, core_values)
    with pytest.raises(BatchError, match="unknown vertex 99"):
        build_delete_batch(g, [(10, 20), (99, 10)])
    assert sorted(g.edges()) == edges and g.vertex_count == 4
    assert np.array_equal(g.adjacency_arrays()[1], lens)


def test_insert_batch_creates_vertices_in_first_sight_order():
    # sparse labels: new labels get the next dense ids as first seen,
    # skipping self-loops and pairs already seen
    g = Graph.from_edges([(10, 20), (20, 30)])
    cores = peel(g)
    b = build_insert_batch(g, [(50, 10), (7, 7), (99, 50), (20, 10),
                               (61, 60), (60, 61), (5, 99)])
    assert [g.label_of(i) for i in range(g.vertex_count)] == \
        [10, 20, 30, 50, 99, 61, 60, 5]
    assert b.pairs.tolist() == [[0, 1], [0, 3], [3, 4], [4, 7], [5, 6]]
    assert (b.dropped_duplicates, b.dropped_self_loops) == (1, 1)
    assert insert_edges(g, cores, b).dropped_existing == 1  # (20, 10)
    # identity labels stay identity only while new labels come in order
    g = Graph.from_edges([(0, 1), (1, 2)], dense_labels=True)
    build_insert_batch(g, [(3, 0), (4, 3)])
    assert g._label_index is None  # still the identity
    build_insert_batch(g, [(6, 5), (5, 7)])
    assert [g.label_of(i) for i in range(g.vertex_count)] == \
        [0, 1, 2, 3, 4, 6, 5, 7]
    assert g.dense_of(5) == 6 and g.dense_of(7) == 7


def test_table_indexed_graph_builds_batches_as_the_sorted_form():
    # 60,000 vertices with labels in 0..99,999: the label index is a table,
    # and a batch's keys u * n + v pass 2^31, so the ids must be int64
    rng = np.random.default_rng(11)
    n = 60_000
    labels = np.sort(rng.choice(100_000, size=n, replace=False))
    ring = rng.permutation(labels)
    edges = np.stack([ring, np.roll(ring, 1)], 1)  # every label, once round
    table = Graph.from_edges(edges)
    assert isinstance(table._label_index, np.ndarray)
    by_sort = table.copy()
    by_sort._label_index = (labels, np.arange(n))  # load gives label order
    deletes = edges[rng.choice(n, 500, replace=False)]
    ids = {lab: i for i, lab in enumerate(labels.tolist())}
    want = sorted({(min(ids[u], ids[v]), max(ids[u], ids[v]))
                   for u, v in deletes.tolist()})
    inserts = np.concatenate([rng.choice(labels, size=(400, 2)),
                              rng.integers(10 ** 5, 10 ** 6, size=(100, 2))])
    for build, pairs in ((build_delete_batch, deletes),
                         (build_insert_batch, inserts)):
        a, b = (build(g, pairs) for g in (table, by_sort))
        for field in ("pairs", "alive", "multiplicity"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert (a.dropped_duplicates, a.dropped_self_loops) == \
            (b.dropped_duplicates, b.dropped_self_loops)
        if build is build_delete_batch:
            assert list(map(tuple, a.pairs.tolist())) == want
    assert np.array_equal(table.labels(), by_sort.labels())
    assert table.vertex_count > n


def test_plan_round_leaves_the_batch_unchanged():
    # the engine, not the planner, marks a round's pairs done
    g, cores = graph_with_cores([2, 2, 2, 2])
    b = build_insert_batch(g, [(0, 1), (1, 2), (2, 3)])
    alive, values = b.alive.copy(), cores.values.copy()
    plan = plan_round(b, cores)
    assert plan.selected_indices.dtype == np.intp
    assert plan.selected_indices.tolist() == [0, 2]  # (1, 2) waits a round
    assert np.array_equal(b.alive, alive)
    assert np.array_equal(cores.values, values)


def test_repeated_plans_drain_within_selection_bound():
    # provable bound for the greedy selection: 2 * multiplicity - 1 rounds
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = 25
        cores = CoreMap(rng.integers(0, 4, size=n).astype(np.int32))
        g = Graph.from_edges([], num_vertices=n, dense_labels=True)
        pairs = set()
        while len(pairs) < 25:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        b = build_insert_batch(g, sorted(pairs))
        mult = b.max_multiplicity
        rounds = 0
        while b.remaining:
            plan = plan_round(b, cores)
            b.alive[plan.selected_indices] = False
            rounds += 1
        assert rounds <= max(1, 2 * mult - 1)


@pytest.mark.parametrize("mode", ["insert", "delete"])
def test_one_graph_lookup_per_batch(monkeypatch, mode):
    # the builders never look edges up; the engine does, once per batch
    # however many rounds it takes
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)],
                         dense_labels=True)
    cores = peel(g)
    calls = []
    has_dense = Graph._has_dense

    def counting(self, *args, **kwargs):
        calls.append(mode)
        return has_dense(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "_has_dense", counting)
    if mode == "insert":
        batch = build_insert_batch(g, [(0, 1), (1, 3), (0, 4), (3, 4),
                                       (1, 4)])
        assert calls == []
        log = insert_edges(g, cores, batch)
    else:
        batch = build_delete_batch(g, [(0, 1), (0, 2), (1, 2), (0, 3)])
        assert calls == []
        log = delete_edges(g, cores, batch)
    assert len(calls) == 1
    assert log.rounds_executed > 1
    monkeypatch.undo()
    assert cores == peel(g)
