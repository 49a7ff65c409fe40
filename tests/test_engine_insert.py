import itertools

import numpy as np
import pytest

from coremaint import (CoreMap, Graph, build_delete_batch,
                       build_insert_batch, delete_edges, insert_edges, peel)
from coremaint.gen import sample_new_edges
from coremaint.kernels import available_backends
from support_oracle import (constrained_support, networkx_core_numbers,
                            support_degree)


def er_like(n, p, seed):
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, 1)
    return Graph.from_edges(np.argwhere(mask), num_vertices=n,
                            dense_labels=True)


def run_insert(g, edges, **kw):
    cores = peel(g)
    batch = build_insert_batch(g, edges)
    log = insert_edges(g, cores, batch, **kw)
    return cores, log


# ----------------------------------------------------------------------
# support queries


def test_support_degree_isolated():
    g = Graph.from_edges([], num_vertices=1, dense_labels=True)
    assert support_degree(g, peel(g), 0) == 0
    assert constrained_support(g, peel(g), 0) == 0


def test_support_degree_triangle():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], dense_labels=True)
    cores = peel(g)
    assert support_degree(g, cores, 0) == 2


def test_support_degree_pendant():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], dense_labels=True)
    cores = peel(g)  # frozen above: cores (2,2,2,1)
    assert support_degree(g, cores, 3) == 1


def test_constrained_support_triangle_is_zero():
    # all cores 2, every support degree 2, nothing exceeds the level
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], dense_labels=True)
    cores = peel(g)
    assert constrained_support(g, cores, 0) == 0


def test_constrained_support_counts_higher_cores():
    # vertex 0 (core 1) with three neighbors inside a clique of core 3
    edges = list(itertools.combinations(range(1, 6), 2)) + [(0, 1)]
    g = Graph.from_edges(edges, dense_labels=True)
    cores = peel(g)
    assert cores.of(g, 0) == 1
    g.add_edge(0, 2)
    g.add_edge(0, 3)
    assert constrained_support(g, peel(g), 0) == 3


# ----------------------------------------------------------------------
# single-round behavior on hand-built instances


def test_bridge_between_triangles_changes_nothing():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                         dense_labels=True)
    cores, log = run_insert(g, [(0, 3)])
    assert cores.values.tolist() == [2] * 6
    assert log.changed_total == 0
    assert cores == peel(g)


def test_completing_k4_raises_all_four():
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                         dense_labels=True)
    cores, log = run_insert(g, [(2, 3)])
    assert cores.values.tolist() == [3, 3, 3, 3]
    assert log.rounds[0].changed == (0, 1, 2, 3)


def test_new_vertex_edge_level_zero():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], dense_labels=True)
    cores, log = run_insert(g, [(2, 7)])  # label 7 is new, core 0
    assert log.rounds[0].levels == (0,)
    assert cores.of(g, 7) == 1
    assert cores == peel(g)


def test_core_map_longer_than_graph_is_rejected():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=4,
                         dense_labels=True)
    cores = CoreMap(np.array([2, 2, 2, 0, 0], dtype=np.int32))
    batch = build_insert_batch(g, [(2, 3)])
    with pytest.raises(ValueError, match="5 entries"):
        insert_edges(g, cores, batch)
    assert g.edge_count == 3 and batch.remaining == 1


def test_core_map_padding_over_edges_is_rejected():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], dense_labels=True)
    cores = CoreMap()
    batch = build_insert_batch(g, [(0, 3)])
    with pytest.raises(ValueError, match="has edges"):
        insert_edges(g, cores, batch)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert len(cores) == 0 and batch.remaining == 1


def test_core_map_padding_over_new_vertices_is_allowed():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], dense_labels=True)
    cores = peel(g)
    batch = build_insert_batch(g, [(0, 3), (4, 5)])  # 3, 4, 5 are new
    insert_edges(g, cores, batch)
    assert cores == peel(g)


@pytest.mark.parametrize("mode", ["insert", "delete"])
def test_audit_rejects_a_stale_core_map(mode):
    # K4 on 0-3 plus triangle 3-4-5; an edge of the K4 removed behind the
    # map's back leaves it stale: peel now gives 2 everywhere
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                          (3, 4), (4, 5), (3, 5)], dense_labels=True)
    cores = peel(g)
    g.remove_edge(0, 1)
    before = cores.values.tolist()
    edges = sorted(g.edges())
    if mode == "insert":
        batch, run = build_insert_batch(g, [(2, 5)]), insert_edges
    else:
        batch, run = build_delete_batch(g, [(4, 5)]), delete_edges
    with pytest.raises(ValueError, match="core map does not match"):
        run(g, cores, batch, audit=True)
    assert cores.values.tolist() == before
    assert sorted(g.edges()) == edges and batch.remaining == 1


def test_pendant_rise_depends_on_backing():
    # pendant 0 (core 1) attached to two high-core anchors rises to 2
    clique = list(itertools.combinations(range(1, 7), 2))
    g = Graph.from_edges(clique + [(0, 1)], dense_labels=True)
    cores, _ = run_insert(g, [(0, 2)])
    assert cores.of(g, 0) == 2
    assert cores == peel(g)


# ----------------------------------------------------------------------
# batched behavior


def test_empty_batch_is_noop():
    g = Graph.from_edges([(0, 1), (1, 2)], dense_labels=True)
    before = peel(g)
    cores, log = run_insert(g, [])
    assert cores == before
    assert log.rounds_executed == 0


@pytest.mark.parametrize("backend", available_backends())
def test_random_batches_match_peel(backend):
    rng = np.random.default_rng(60)
    for trial in range(25):
        n = int(rng.integers(10, 80))
        g = er_like(n, rng.uniform(0.05, 0.25), int(rng.integers(1 << 30)))
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            continue
        count = int(rng.integers(1, min(len(non_edges), 30) + 1))
        idx = rng.choice(len(non_edges), size=count, replace=False)
        cores, log = run_insert(g, [non_edges[i] for i in idx],
                                backend=backend, audit=True)
        assert cores == peel(g), f"trial {trial}"
        assert cores == networkx_core_numbers(g), f"trial {trial}"
        assert log.audit_violations == []


@pytest.mark.parametrize("backend", available_backends())
def test_edges_added_after_build_are_dropped(backend):
    # another batch applied between building this one and running it puts
    # some of its pairs in the graph; those are dropped once and counted
    rng = np.random.default_rng(61)
    dropped = 0
    for trial in range(10):
        n = int(rng.integers(20, 60))
        g = er_like(n, rng.uniform(0.05, 0.25), int(rng.integers(1 << 30)))
        cores = peel(g)
        batch = build_insert_batch(g, sample_new_edges(g, 30, seed=trial))
        late = batch.pairs[rng.random(batch.size) < 0.3].tolist()
        first = build_insert_batch(g, late)
        insert_edges(g, cores, first, backend=backend)
        log = insert_edges(g, cores, batch, backend=backend, audit=True)
        assert log.dropped_existing == len(late), f"trial {trial}"
        assert log.edges_applied == batch.size - len(late)
        assert log.audit_violations == []
        assert cores == peel(g)
        g.check_invariants()
        dropped += len(late)
    assert dropped > 0


def test_rise_candidates_satisfy_support_condition():
    # every raised vertex had its pre-round core at the level and more
    # than level-many backing neighbors right after the round's insertions
    rng = np.random.default_rng(61)
    g = er_like(40, 0.12, 5)
    non_edges = [(u, v) for u in range(40) for v in range(u + 1, 40)
                 if not g.has_edge(u, v)]
    idx = rng.choice(len(non_edges), size=15, replace=False)
    picked = [non_edges[i] for i in idx]

    replay = g.copy()
    cores = peel(replay)
    batch = build_insert_batch(replay, picked)
    log = insert_edges(replay, cores, batch)
    shadow = g.copy()
    shadow_cores = peel(shadow)
    for rec in log.rounds:
        for k in rec.levels:
            for u, v in rec.edges_at_level[k]:
                shadow.add_edge(u, v)
        for v in rec.changed:
            k = int(shadow_cores.values[v])
            assert k in rec.levels
            assert constrained_support(shadow, shadow_cores, v) > k
        shadow_cores.values[list(rec.changed)] += 1
    assert shadow_cores == cores


def test_insert_never_decreases_cores():
    rng = np.random.default_rng(62)
    g = er_like(50, 0.1, 9)
    before = peel(g).values.copy()
    non_edges = [(u, v) for u in range(50) for v in range(u + 1, 50)
                 if not g.has_edge(u, v)]
    idx = rng.choice(len(non_edges), size=40, replace=False)
    cores, _ = run_insert(g, [non_edges[i] for i in idx])
    assert (cores.values >= before).all()


def test_round_count_counterexamples():
    # a high-core hub with partners at distinct levels drains in ONE round
    # even though its multiplicity is 2 ...
    anchor = list(itertools.combinations(range(6), 2))  # K6, cores 5
    extra = [(6, 7), (8, 9), (9, 10), (8, 10)]  # core 1 pair, core 2 triangle
    g = Graph.from_edges(anchor + extra, dense_labels=True)
    cores = peel(g)
    assert (cores.of(g, 0), cores.of(g, 6), cores.of(g, 8)) == (5, 1, 2)
    batch = build_insert_batch(g, [(0, 6), (0, 8)])  # hub 0: mult 2
    assert batch.max_multiplicity == 2
    log = insert_edges(g, cores, batch)
    assert log.rounds_executed == 1  # levels 1 and 2 run side by side
    assert cores == peel(g)

    # ... while a same-level triangle of pending edges needs THREE rounds
    # although every multiplicity is 2, when a higher level also has a
    # pending pair: that level cannot be freed, and any two of the
    # triangle's edges share an endpoint at the common level, so each
    # strict round can apply only one.  Triangles 6-8, 9-11 and 12-14
    # (core 2) take the level-2 pairs 6-9 and 6-12, which share vertex 6.
    # Round 1 holds level 2 back; round 2 may not, as 6-12 would then
    # need a fourth round if a replay followed, so it takes 6-9 strictly.
    paths = [(0, 3), (1, 4), (2, 5)]
    triangles = [(b, b + i) for b in (6, 9, 12) for i in (1, 2)] + \
        [(b + 1, b + 2) for b in (6, 9, 12)]
    g2 = Graph.from_edges(paths + triangles, dense_labels=True)
    cores2 = peel(g2)
    assert cores2.values.tolist()[:3] == [1, 1, 1]
    assert cores2.of(g2, 6) == 2
    batch2 = build_insert_batch(g2, [(0, 1), (0, 2), (1, 2), (6, 9),
                                     (6, 12)])
    assert batch2.max_multiplicity == 2
    log2 = insert_edges(g2, cores2, batch2)
    assert log2.rounds_executed == 3
    assert [r.levels for r in log2.rounds] == [(1,), (1, 2), (1, 2)]
    assert [r.free_level for r in log2.rounds] == [None, None, None]
    assert log2.replayed_rounds == 0
    assert cores2 == peel(g2)

    # the same triangle with nothing pending above it is the free level
    # of one round: its risers have only two risen neighbours each, so the
    # peel at 3 leaves none
    g3 = Graph.from_edges(paths, dense_labels=True)
    cores3 = peel(g3)
    log3 = insert_edges(g3, cores3,
                        build_insert_batch(g3, [(0, 1), (0, 2), (1, 2)]))
    assert log3.rounds_executed == 1
    assert log3.rounds[0].free_level == 1
    assert log3.rounds[0].tasks[0].survivors == 0
    assert log3.replayed_rounds == 0
    assert cores3 == peel(g3)


@pytest.mark.parametrize("backend", available_backends())
def test_replay_after_held_back_rounds_keeps_the_round_bound(backend):
    # isolated 0, 1, 2 and the path 3-4-5-6 (core 1) take the triangle
    # 0-1-2 and 3-5, 3-6, 4-6, which make 3..6 a K4: multiplicity 2, so at
    # most 3 rounds.  Round 1 may hold level 1 back, round 2 may not: had
    # it waited, round 3 would free level 1, the K4's risers would
    # survive its peel, and the strict replay would leave 3-6 for a
    # fourth round.
    g = Graph.from_edges([(3, 4), (4, 5), (5, 6)], num_vertices=7,
                         dense_labels=True)
    cores = peel(g)
    batch = build_insert_batch(g, [(0, 1), (0, 2), (1, 2), (3, 5), (3, 6),
                                   (4, 6)])
    assert batch.max_multiplicity == 2
    log = insert_edges(g, cores, batch, backend=backend, audit=True)
    assert log.rounds_executed == 3
    assert [r.levels for r in log.rounds] == [(0,), (0, 1), (1, 2)]
    assert log.replayed_rounds == 0
    assert cores == peel(g)
    assert log.audit_violations == []


@pytest.mark.parametrize("backend", available_backends())
def test_surviving_riser_replays_the_round_strictly(backend):
    # a triangle on three isolated vertices: level 0 is freed, all three
    # rise, and each keeps two risen neighbours, so all survive the peel
    # at 2; the round is undone and the batch runs by the strict rule
    g = Graph.from_edges([], num_vertices=3, dense_labels=True)
    cores = peel(g)
    batch = build_insert_batch(g, [(0, 1), (0, 2), (1, 2)])
    log = insert_edges(g, cores, batch, backend=backend, audit=True)
    assert log.replayed_rounds == 1 and log.replayed_ns > 0
    assert cores.values.tolist() == [2, 2, 2]
    assert cores == peel(g)
    assert log.audit_violations == []
    assert [r.free_level for r in log.rounds] == [None] * 3
    assert log.edges_applied == 3 and g.edge_count == 3


def every_insert_batch(n):
    """Every graph on n vertices, with its cores, and every non-empty batch
    of its absent pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        absent = [p for i, p in enumerate(pairs) if not mask >> i & 1]
        g = Graph.from_edges(np.asarray(edges, np.int64).reshape(-1, 2),
                             num_vertices=n, dense_labels=True)
        cores = peel(g)
        for pick in range(1, 1 << len(absent)):
            yield g, cores, [p for i, p in enumerate(absent)
                             if pick >> i & 1]


@pytest.mark.parametrize("backend, most", [
    pytest.param("python", 4, id="python"),
    pytest.param("c", 5, id="c", marks=pytest.mark.skipif(
        "c" not in available_backends(), reason="no compiled lane")),
])
def test_every_small_insert_batch_matches_peel(backend, most):
    # free levels, held-back levels and replays on every insert batch of
    # every graph of at most ``most`` vertices, within the round bound
    batches = replays = 0
    for n in range(most + 1):
        for g0, cores0, edges in every_insert_batch(n):
            g, cores = g0.copy(), cores0.copy()
            batch = build_insert_batch(g, edges)
            log = insert_edges(g, cores, batch, backend=backend)
            assert cores == peel(g), (n, sorted(g0.edges()), edges)
            assert log.rounds_executed <= 2 * batch.max_multiplicity - 1
            # a strict level's riser peel leaves nothing
            assert all(t.survivors == 0 for r in log.rounds
                       for t in r.tasks if t.level != r.free_level)
            batches += 1
            replays += log.replayed_rounds
    assert replays > 0
    assert batches == sum(3 ** (n * (n - 1) // 2) - 2 ** (n * (n - 1) // 2)
                          for n in range(most + 1))


def test_per_round_change_is_at_most_one():
    rng = np.random.default_rng(63)
    g = er_like(45, 0.15, 11)
    non_edges = [(u, v) for u in range(45) for v in range(u + 1, 45)
                 if not g.has_edge(u, v)]
    idx = rng.choice(len(non_edges), size=35, replace=False)
    cores, log = run_insert(g, [non_edges[i] for i in idx], audit=True)
    assert log.audit_violations == []
    assert log.rounds_executed <= max(1, 2 * log.max_multiplicity - 1)
