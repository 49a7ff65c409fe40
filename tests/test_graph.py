import io

import numpy as np
import pytest

from coremaint import (Edge, EdgeListParseError, Graph, SelfLoopError,
                       load_edge_list, load_edge_list_with_stats,
                       save_edge_list)
from coremaint.graph import sorted_unique


def test_add_edge_to_empty_graph():
    g = Graph()
    assert g.add_edge(1, 2) == "new"
    assert g.vertex_count == 2
    assert g.edge_count == 1


def test_add_edge_twice_is_duplicate():
    g = Graph()
    g.add_edge(1, 2)
    assert g.add_edge(1, 2) == "duplicate"
    assert g.add_edge(2, 1) == "duplicate"
    assert g.edge_count == 1


def test_self_loop_rejected():
    g = Graph()
    with pytest.raises(SelfLoopError):
        g.add_edge(3, 3)
    with pytest.raises(SelfLoopError):
        Edge(4, 4)


def test_remove_edge_after_add():
    g = Graph()
    g.add_edge(1, 2)
    assert g.remove_edge(1, 2) == "removed"
    assert g.edge_count == 0


def test_remove_from_empty_graph_is_absent():
    g = Graph()
    assert g.remove_edge(1, 2) == "absent"


def test_remove_updates_adjacency():
    g = Graph()
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.remove_edge(1, 2)
    assert set(g.neighbors(2)) == {3}


def test_edge_canonical_order():
    e = Edge(7, 3)
    assert (e.u, e.v) == (3, 7)
    assert e == Edge(3, 7)


def test_random_mutations_keep_invariants():
    rng = np.random.default_rng(31)
    g = Graph()
    present = set()
    for _ in range(600):
        u, v = int(rng.integers(25)), int(rng.integers(25))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if rng.random() < 0.6:
            status = g.add_edge(u, v)
            assert status == ("duplicate" if key in present else "new")
            present.add(key)
        else:
            status = g.remove_edge(u, v)
            assert status == ("removed" if key in present else "absent")
            present.discard(key)
        assert g.edge_count == len(present)
    g.check_invariants()
    assert set(g.edges()) == present


def test_load_edge_list_basic():
    g = load_edge_list(b"1 2\n2 3\n")
    assert g.vertex_count == 3
    assert g.edge_count == 2


def test_load_edge_list_dedup_and_comments():
    g, stats = load_edge_list_with_stats(b"# c\n1 2\n1 2\n2 1\n")
    assert g.edge_count == 1
    assert stats.dropped_duplicates == 2
    assert stats.comment_lines == 1


def test_load_edge_list_drops_self_loops():
    g, stats = load_edge_list_with_stats(b"1 2\n3 3\n")
    assert g.edge_count == 1
    assert stats.dropped_self_loops == 1


def test_load_edge_list_malformed_line():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(b"1 x\n")
    assert err.value.line_no == 1
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(b"1 2\n3 4 5\n")
    assert err.value.line_no == 2


def test_sparse_labels_are_remapped_densely():
    g = load_edge_list(b"1000000 5\n5 70000\n")
    assert g.vertex_count == 3
    assert g.degree(5) == 2
    assert set(g.neighbors(5)) == {70000, 1000000}


def test_roundtrip_serialization():
    src = b"# header\n9 4\n4 2\n9 2\n17 9\n"
    g1 = load_edge_list(src)
    buf = io.StringIO()
    save_edge_list(g1, buf)
    g2 = load_edge_list(buf.getvalue().encode())
    assert sorted(g1.edges()) == sorted(g2.edges())
    assert g1.vertex_count == g2.vertex_count
    # canonical output: ascending label pairs, min label first
    lines = [tuple(map(int, ln.split())) for ln in
             buf.getvalue().strip().splitlines()]
    assert lines == sorted(lines)
    assert all(u < v for u, v in lines)


def test_from_edges_bulk_matches_incremental():
    rng = np.random.default_rng(77)
    edges = set()
    while len(edges) < 80:
        u, v = int(rng.integers(30)), int(rng.integers(30))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    bulk = Graph.from_edges(np.array(sorted(edges)), num_vertices=30,
                            dense_labels=True)
    inc = Graph()
    for u, v in sorted(edges):
        inc.add_edge(u, v)
    assert sorted(bulk.edges()) == sorted(inc.edges())
    bulk.check_invariants()
    inc.check_invariants()


def test_edge_array_lists_each_edge_once():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], dense_labels=True)
    arr = g.edge_array()
    assert sorted(map(tuple, arr.tolist())) == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("values", [
    np.random.default_rng(8).integers(-50, 50, size=500),
    np.zeros(0, dtype=np.int64),
    np.full(17, 4, dtype=np.int32),
    np.random.default_rng(9).integers(0, 1 << 40, size=(30, 2)),
], ids=["random", "empty", "all-equal", "2d"])
def test_sorted_unique_equals_np_unique(values):
    uniq, counts = sorted_unique(values, return_counts=True)
    ref, ref_counts = np.unique(values, return_counts=True)
    assert uniq.dtype == ref.dtype
    assert np.array_equal(uniq, ref)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(sorted_unique(values), ref)


def _check_against_mirror(g, mirror):
    g.check_invariants()
    assert g.edge_count == len(mirror)
    assert set(map(tuple, g.edge_array().tolist())) == mirror


def test_bulk_rounds_match_a_set_mirror():
    # vertex 0 is a hub that keeps gaining edges (its block relocates many
    # times and the pool grows from empty); vertex 1 gains edges in every
    # add round and loses them again in the next round
    rng = np.random.default_rng(12)
    n = 120
    g = Graph.from_edges([], num_vertices=n, dense_labels=True)
    mirror: set[tuple[int, int]] = set()
    hub_starts, pool_sizes = set(), set()
    for rnd in range(60):
        if rnd % 2 == 0:
            new = set()
            while len(new) < 25:
                u = 0 if len(new) < 2 else 1 if len(new) < 4 else \
                    int(rng.integers(n))
                v = int(rng.integers(n))
                key = (min(u, v), max(u, v))
                if u != v and key not in mirror:
                    new.add(key)
            pairs = np.array(sorted(new), dtype=np.int32)
            rng.shuffle(pairs)
            g._add_dense(pairs[:, 0], pairs[:, 1])
            mirror |= new
        else:
            present = sorted(mirror)
            gone = {e for e in present if 1 in e}
            for i in rng.choice(len(present), size=15, replace=False):
                if 0 not in present[i]:
                    gone.add(present[i])
            pairs = np.array(sorted(gone), dtype=np.int64)
            g._remove_dense(pairs[:, 1], pairs[:, 0])  # either order works
            mirror -= gone
        _check_against_mirror(g, mirror)
        hub_starts.add(int(g._starts[0]))
        pool_sizes.add(len(g._pool))
    assert g.degree(0) == len([e for e in mirror if 0 in e]) >= 60
    assert len(hub_starts) >= 4 and len(pool_sizes) >= 3
    us = rng.integers(n, size=400)
    vs = rng.integers(n, size=400)
    expect = [(min(u, v), max(u, v)) in mirror for u, v in zip(us, vs)]
    assert g._has_dense(us, vs).tolist() == expect


def test_remove_dense_rejects_absent_or_repeated_pairs():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], dense_labels=True)
    before = sorted(g.edges())
    for us, vs in [([0, 1], [1, 3]), ([0, 1], [1, 0]), ([2], [2])]:
        with pytest.raises(ValueError):
            g._remove_dense(np.array(us), np.array(vs))
        assert sorted(g.edges()) == before
        g.check_invariants()


def test_check_invariants_catches_one_sided_entry():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 3)], dense_labels=True)
    g.check_invariants()
    s = int(g._starts[3])
    g._pool[s] = 2  # 3 now lists 2 (not 0), and 2 does not list 3
    with pytest.raises(AssertionError):
        g.check_invariants()
