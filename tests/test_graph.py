import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coremaint import (Edge, EdgeListParseError, Graph, SelfLoopError,
                       build_delete_batch, build_insert_batch, load_edge_list,
                       peel, save_edge_list, write_core_file)
from coremaint import graph as graph_module
from coremaint.graph import _read_lines, read_edge_pairs, sorted_unique
from coremaint.kernels import available_backends, get_backend


def parse_lanes():
    """``parse_pairs`` of every available kernel backend."""
    return [get_backend(name).parse_pairs for name in available_backends()]


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
    g = load_edge_list(b"# c\n1 2\n1 2\n2 1\n")
    stats = g.load_stats
    assert g.edge_count == 1
    assert stats.dropped_duplicates == 2
    assert stats.comment_lines == 1


def test_load_edge_list_drops_self_loops():
    g = load_edge_list(b"1 2\n3 3\n")
    stats = g.load_stats
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


def test_removal_hands_the_pairs_over_as_they_are():
    # the backend gets the pairs as given, whatever their order and
    # orientation, as int32, and each touched block keeps its other
    # entries in their order
    rng = np.random.default_rng(12)
    real = get_backend()
    for trial in range(40):
        n = int(rng.integers(2, 300))
        g = Graph.from_edges(rng.integers(n, size=(4 * n, 2)),
                             num_vertices=n, dense_labels=True)
        pairs = g.edge_array()
        pairs = pairs[rng.random(len(pairs)) < 0.4]
        pairs = pairs[rng.permutation(len(pairs))]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
        us, vs = pairs[:, 0], pairs[:, 1]
        gone = set(zip(us.tolist(), vs.tolist()))
        gone |= {(v, u) for u, v in gone}
        expect = [[w for w in g.neighbors(v) if (v, w) not in gone]
                  for v in range(n)]
        seen = []

        class Spy:
            NAME = "spy"

            @staticmethod
            def remove_edges(starts, lens, pool, us, vs):
                seen.append([us.dtype, vs.dtype, us.tobytes(), vs.tobytes()])
                real.remove_edges(starts, lens, pool, us, vs)

        g._remove_dense(us, vs, backend=Spy())
        assert seen == [[np.int32, np.int32,
                         *(a.astype(np.int32).tobytes() for a in (us, vs))]]
        assert [g.neighbors(v) for v in range(n)] == expect, trial
        g.check_invariants()


def test_check_invariants_catches_one_sided_entry():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 3)], dense_labels=True)
    g.check_invariants()
    s = int(g._starts[3])
    g._pool[s] = 2  # 3 now lists 2 (not 0), and 2 does not list 3
    with pytest.raises(AssertionError):
        g.check_invariants()


# ----------------------------------------------------------------------
# edge-list reading: the array path against the line parser

_BLANK = st.sampled_from(["", " ", "\t", " \t "])
_LABEL = st.one_of(st.integers(0, 10 ** 6),
                   st.sampled_from([0, 7, 10 ** 18, 2 ** 63 - 1]))
_ODD_LINE = st.sampled_from([
    "+5 6", "5 -1", "-1 2", "1_000 2", "1 2 # c", "1 2#", "#c 1 2 # d",
    "3 4 5", "7", "x y", "1 2 3 4", "\u0661\u0662 3", "1\u00a02",
    "1\u20032", "\u00e9 1", "#\u00e9", "9223372036854775808 1",
    "1 99999999999999999999", "0000000000000000000000007 8", "1\x0b2",
    "\x0c1 2", "1,2", "0x10 2", "\x00"])


@st.composite
def _edge_list_text(draw) -> bytes:
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["pair"] * 5 + ["blank", "comment",
                                                     "odd"]))
        if kind == "pair":
            u, v = draw(_LABEL), draw(_LABEL)
            pad = draw(st.integers(0, 3))
            line = (draw(_BLANK) + str(u).zfill(pad) + draw(_BLANK) + " "
                    + str(v) + draw(_BLANK))
        elif kind == "blank":
            line = draw(_BLANK)
        elif kind == "comment":
            line = draw(_BLANK) + "#" + draw(st.text(
                st.characters(max_codepoint=0x7F, exclude_characters="\r\n"),
                max_size=6))
        else:
            line = draw(_ODD_LINE)
        end = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
        lines.append(line + end)
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines).encode("utf-8")


def _outcome(read, source):
    try:
        pairs, comments = read(source)
    except EdgeListParseError as err:
        return ("error", err.line_no)
    assert pairs.dtype == np.int64 and pairs.shape == (len(pairs), 2)
    return ("ok", pairs.tolist(), comments)


def test_array_path_matches_line_parser(tmp_path):
    path = tmp_path / "graph.edges"
    took_array_path = []

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(_edge_list_text())
    def check(data):
        path.write_bytes(data)
        fast = [parse(data) for parse in parse_lanes()]
        # every lane reads the same subset of inputs
        assert len({f is None for f in fast}) == 1
        took_array_path.append(fast[0] is not None)
        # the same bytes read alike from every source kind
        want = _outcome(_read_lines, data)
        for source in (path, data, io.BytesIO(data), bytearray(data),
                       memoryview(data)):
            assert _outcome(read_edge_pairs, source) == want
            for f in fast:
                if f is not None:
                    assert ("ok", f[0].tolist(), f[1]) == want

    check()
    assert 60 <= sum(took_array_path) < len(took_array_path)


@pytest.mark.parametrize("data", [
    b"", b"\n \n", b"# only a comment", b"1 2", b"1 2\n3 4\n",
    b"# SNAP header ~\n10\t20\r\n\r\n 30  40 \n",
    b"  #indented comment\n5 6\n", b"0000000000000000000000007 8\n",
    b"9223372036854775807 0\n", b"0" * 25 + b"12 3\n", b"1 2\n3 4",
    b"1 2\t\n3\t4\t", b"\r\n1 2\r\n\r\n \t\r\n3 4\r\n\r\n",
    b"#\x00 \x7f\r\n1 2\n", b"# a\n\t# b\r\n#", b"0 0\n"])
def test_plain_inputs_take_the_array_path(data):
    for parse in parse_lanes():
        fast = parse(data)
        assert fast is not None
        assert _outcome(lambda _: fast, data) == _outcome(_read_lines, data)


@pytest.mark.parametrize("data", [
    b"+5 6\n", b"1_000 2\n", b"-1 2\n", b"1 2\r3 4\n", b"1 2 # c\n",
    b"1 2#\n", b"# caf\xc3\xa9\n1 2\n", b"\xd9\xa1 2\n", b"1 2 3\n",
    b"1\n", b"9223372036854775808 1\n", b"1\x0b2\n", b"\xff\n",
    b"1 2\r", b"1 99999999999999999999\n", b"# a\rb\n1 2\n", b"#\r",
    b"1 2\x00\n", b"\x00", b"1 2\n\x003 4\n", b"# \xc3\xa9", b"1 2\r\r\n"])
def test_other_inputs_go_to_the_line_parser(data):
    for parse in parse_lanes():
        assert parse(data) is None


@pytest.mark.parametrize("data", [
    b"1 2\n9223372036854775808 1\n", b"1 2\n3 99999999999999999999\n"])
def test_labels_beyond_int64_name_their_line(data):
    with pytest.raises(EdgeListParseError) as err:
        read_edge_pairs(data)
    assert err.value.line_no == 2


def test_file_is_read_once(tmp_path, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(graph_module, "open", counting_open, raising=False)
    path = tmp_path / "graph.edges"
    for data, want in [(b"1 2\n", ("ok", [[1, 2]], 0)),
                       (b"+5 6\r# c\n7 8\n", ("ok", [[5, 6], [7, 8]], 1)),
                       (b"1 2\n3 x\n", ("error", 2))]:
        path.write_bytes(data)
        opened.clear()
        assert _outcome(read_edge_pairs, path) == want
        assert opened == [path]


@pytest.mark.parametrize("kind", ["path", "bytes", "binary stream"])
@pytest.mark.parametrize("data, line_no", [
    (b"1 2\n\xff 3\n", 2), (b"# caf\xe9\n1 2\n", 1),
    (b"1 2\n3 4\n5 \xed\xa0\x80\n", 3)])  # an encoded surrogate
def test_bytes_that_are_not_utf8_name_their_line(kind, data, line_no,
                                                 tmp_path):
    path = tmp_path / "graph.edges"
    path.write_bytes(data)
    sources = {"path": lambda: path, "bytes": lambda: data,
               "binary stream": lambda: io.BytesIO(data)}
    for read in (load_edge_list, read_edge_pairs):
        with pytest.raises(EdgeListParseError) as err:
            read(sources[kind]())
        assert err.value.line_no == line_no


def test_huge_label_names_its_line():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(b"1 2\n3 18446744073709551616\n")
    assert err.value.line_no == 2


# ----------------------------------------------------------------------
# bulk construction


def _assert_blocks_in_construction_order(g, nbrs):
    """Blocks packed in vertex order, capacity == length, each listing its
    larger neighbours ascending, then its smaller ones ascending."""
    start = 0
    for v in range(g.vertex_count):
        want = (sorted(w for w in nbrs[v] if w > v)
                + sorted(w for w in nbrs[v] if w < v))
        assert g._starts[v] == start
        assert g._lens[v] == g._caps[v] == len(want)
        assert g._pool[start:start + len(want)].tolist() == want
        start += len(want)
    assert g._pool_used == start == 2 * g.edge_count
    g.check_invariants()


def _reference_build(raw, ids):
    nbrs = {i: set() for i in set(ids.values())}
    canon, loops = [], 0
    for u, v in raw:
        if u == v:
            loops += 1
            continue
        nbrs[ids[u]].add(ids[v])
        nbrs[ids[v]].add(ids[u])
        canon.append((min(ids[u], ids[v]), max(ids[u], ids[v])))
    stats = dict(edges=len(set(canon)), comment_lines=0,
                 dropped_self_loops=loops,
                 dropped_duplicates=len(canon) - len(set(canon)))
    return nbrs, stats


@pytest.mark.parametrize("labels", [
    np.random.default_rng(1).choice(10 ** 12, size=40, replace=False),
    np.random.default_rng(2).permutation(40),  # identity once sorted
], ids=["sparse", "permuted-dense"])
def test_from_edges_block_order(labels):
    rng = np.random.default_rng(3)
    raw = labels[rng.integers(0, len(labels), size=(300, 2))]
    raw[:5] = raw[5:10][:, ::-1]  # reversed duplicates
    raw[10:13, 1] = raw[10:13, 0]  # self-loops
    g = Graph.from_edges(raw)
    uniq = sorted(set(raw.ravel().tolist()))
    nbrs, stats = _reference_build(raw.tolist(),
                                   {lab: i for i, lab in enumerate(uniq)})
    assert g.labels().tolist() == uniq
    assert (g._label_index is None) == (uniq == list(range(len(uniq))))
    assert vars(g.load_stats) == stats and stats["dropped_self_loops"] >= 3
    _assert_blocks_in_construction_order(g, nbrs)


def _index_lists(index):
    """``Graph._label_index`` as lists: None, a table's int32 entries, or
    the sorted pair's two arrays."""
    if isinstance(index, tuple):
        return [a.tolist() for a in index]
    if index is not None:
        assert index.dtype == np.int32
        return index.tolist()
    return None


def _built(raw) -> tuple:
    g = Graph.from_edges(raw)
    return ([getattr(g, a).tolist() for a in ("_starts", "_lens", "_caps",
                                              "_pool")],
            g.labels().tolist(), _index_lists(g._label_index),
            vars(g.load_stats))


def _pairs(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


@st.composite
def _label_pairs(draw) -> np.ndarray:
    """Up to 30 pairs of labels from offset + 0..spread: dense or sparse
    around 0, without label 0, or near 2^62."""
    offset = draw(st.sampled_from([0, 0, 1, 7, 2 ** 62]))
    labels = st.integers(offset, offset + draw(st.integers(1, 100)))
    return _pairs(draw(st.lists(st.tuples(labels, labels), max_size=30)))


def test_rank_paths_build_the_same_graph():
    table, by_sort = graph_module._rank_by_table, graph_module._rank_by_sort
    sides = set()

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(_label_pairs())
    @example(_pairs([]))
    @example(_pairs([(0, 1)]))  # one edge, ranked by the table
    @example(_pairs([(5, 9)]))  # one edge, ranked by sort
    @example(_pairs([(1, 2), (2, 3)]))  # label 0 absent
    @example(_pairs([(2 ** 62, 2 ** 62 + 3), (2 ** 62 + 3, 2 ** 62 + 1)]))
    @example(_pairs([(0, 2 ** 62)]))
    def check(raw):
        top = int(raw.max()) + 1 if raw.size else 0
        sides.add(top <= 2 * raw.size)  # the density rule
        got = _built(raw)
        with pytest.MonkeyPatch.context() as mp:  # ranked by sort
            mp.setattr(graph_module, "_rank_by_table",
                       lambda flat, top: by_sort(flat))
            assert _built(raw) == got
        if top < 2 ** 20:
            with pytest.MonkeyPatch.context() as mp:  # ranked by the table
                mp.setattr(graph_module, "_rank_by_sort",
                           lambda flat: table(flat, int(flat.max()) + 1))
                assert _built(raw) == got
        elif raw.min() >= 2 ** 62:
            # too sparse for a table: the same graph as the labels near 0
            near_zero = _built(raw - 2 ** 62)
            assert (got[0], got[3]) == (near_zero[0], near_zero[3])
            assert got[1] == [lab + 2 ** 62 for lab in near_zero[1]]

    check()
    assert sides == {True, False}


def test_from_edges_dense_labels_pad_isolated_vertices():
    raw = [(3, 1), (1, 3), (0, 2), (2, 2), (4, 0), (1, 4), (0, 1)]
    g = Graph.from_edges(raw, num_vertices=8, dense_labels=True)
    nbrs, stats = _reference_build(raw, {i: i for i in range(8)})
    assert g.vertex_count == 8 and g.labels().tolist() == list(range(8))
    assert vars(g.load_stats) == stats
    assert (stats["dropped_duplicates"], stats["dropped_self_loops"]) == (1, 1)
    _assert_blocks_in_construction_order(g, nbrs)
    assert g._lens[5:].tolist() == [0, 0, 0]


@pytest.mark.parametrize("num_vertices, error", [
    pytest.param(2.5, "integer", id="float"),
    pytest.param(4.0, "integer", id="integral-float"),
    pytest.param("4", "integer", id="string"),
    pytest.param(-1, "non-negative", id="negative"),
])
def test_from_edges_rejects_num_vertices_that_are_not_counts(num_vertices,
                                                             error):
    # never truncated or parsed, and refused before numpy sees it
    with pytest.raises(ValueError, match=f"num_vertices must be .*{error}"):
        Graph.from_edges([], num_vertices=num_vertices, dense_labels=True)


@pytest.mark.parametrize("num_vertices", [0, 2, 3, 5])
def test_from_edges_rejects_num_vertices_without_dense_labels(num_vertices):
    # fewer, as many and more vertices than the labels give: all refused
    with pytest.raises(ValueError, match="num_vertices requires dense_labels"):
        Graph.from_edges([(0, 1), (1, 2)], num_vertices=num_vertices)


def test_from_edges_of_no_edges():
    g = Graph.from_edges(np.zeros((0, 2), dtype=np.int64))
    assert (g.vertex_count, g.edge_count, g._pool_used) == (0, 0, 0)
    g.check_invariants()


def path_0_to_4():
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])


# every entry point that takes label pairs: (build, the graph it changed)
LABEL_ENTRY_POINTS = {
    "from_edges": lambda edges: (Graph.from_edges(edges), None),
    "insert_batch": lambda edges: (build_insert_batch(g := path_0_to_4(),
                                                      edges), g),
    "delete_batch": lambda edges: (build_delete_batch(g := path_0_to_4(),
                                                      edges), g),
}


@pytest.mark.parametrize("entry", sorted(LABEL_ENTRY_POINTS))
@pytest.mark.parametrize("edges, error", [
    pytest.param([(1.9, 2)], "integers", id="float"),
    pytest.param([(1, 2.0)], "integers", id="integral-float"),
    pytest.param([(0, 2.7)], "integers", id="float-second"),
    pytest.param(np.array([[1.0, 2.0]]), "integers", id="float-array"),
    pytest.param([("3", "4")], "integers", id="strings"),
    pytest.param([(3, "4")], "integers", id="mixed-string"),
    pytest.param([Edge(1.5, 3)], "integers", id="float-edge"),
    pytest.param([(1, None)], "integers", id="none"),
    pytest.param([(-1, 2)], "non-negative", id="negative"),
    pytest.param(np.array([[1, -2]], dtype=np.int8), "non-negative",
                 id="negative-array"),
    pytest.param([(1, 2, 3)], "vertex pairs", id="triple"),
    pytest.param([(1, 2), (3,)], "vertex pairs", id="ragged"),
    pytest.param([(1, 2 ** 70)], "int64 range", id="huge"),
    pytest.param([(1, 2 ** 63)], "int64 range", id="2**63"),
    pytest.param([(2 ** 63, 2 ** 63 + 1)], "int64 range", id="2**63-pair"),
    pytest.param([Edge(1, 2 ** 70)], "int64 range", id="huge-edge"),
    pytest.param(np.array([[1, 2 ** 63]], dtype=np.uint64), "int64 range",
                 id="uint64-array"),
])
def test_labels_that_are_not_non_negative_integers_are_rejected(
        entry, edges, error):
    # no label is truncated, parsed or wrapped, and a batch builder
    # creates no vertex
    build = LABEL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=error):
        build(edges)
    if entry == "insert_batch":
        g = path_0_to_4()
        with pytest.raises(ValueError, match=error):
            build_insert_batch(g, [(7, 8), *edges])
        assert g.vertex_count == 5


# every method that takes scalar labels: (call, good labels on path_0_to_4,
# the call's result for them)
SCALAR_ENTRY_POINTS = {
    "add_edge": (Graph.add_edge, (1, 2), "duplicate"),
    "remove_edge": (Graph.remove_edge, (1, 2), "removed"),
    "has_edge": (Graph.has_edge, (1, 2), True),
    "degree": (Graph.degree, (2,), 2),
    "neighbors": (lambda g, v: sorted(g.neighbors(v)), (2,), [1, 3]),
    "dense_of": (Graph.dense_of, (2,), 2),
    "has_vertex": (Graph.has_vertex, (2,), True),
    "core_of": (lambda g, v: peel(g).of(g, v), (2,), 1),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("bad, error", [
    pytest.param(1.9, "integers", id="float"),
    pytest.param(2.0, "integers", id="integral-float"),
    pytest.param("2", "integers", id="string"),
    pytest.param(None, "integers", id="none"),
    pytest.param(-2, "non-negative", id="negative"),
    pytest.param(2 ** 70, "int64 range", id="huge"),
    pytest.param(2 ** 63, "int64 range", id="2**63"),
])
def test_scalar_labels_that_are_not_labels_are_rejected(entry, bad, error):
    # no label is truncated, parsed or wrapped, whichever one is bad, and
    # the graph is left as it was
    call, good, result = SCALAR_ENTRY_POINTS[entry]
    g = path_0_to_4()
    for i in range(len(good)):
        with pytest.raises(ValueError, match=error):
            call(g, *good[:i], bad, *good[i + 1:])
    assert (sorted(g.edges()), g.vertex_count) == \
        ([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    assert call(g, *map(np.int64, good)) == result


@pytest.mark.parametrize("entry", sorted(LABEL_ENTRY_POINTS))
@pytest.mark.parametrize("edges", [
    pytest.param([(2, 1)], id="ints"),
    pytest.param([(np.int64(2), np.int32(1))], id="numpy-ints"),
    pytest.param(np.array([[2, 1]], dtype=np.uint8), id="uint8-array"),
    pytest.param([Edge(2, 1)], id="edge"),
])
def test_integer_labels_are_accepted(entry, edges):
    built, g = LABEL_ENTRY_POINTS[entry](edges)
    if g is None:
        assert sorted(built.edges()) == [(1, 2)]
    else:
        assert built.pairs.tolist() == [[g.dense_of(1), g.dense_of(2)]]


# ----------------------------------------------------------------------
# label lookups


def test_label_map_is_built_on_first_scalar_lookup():
    # the sorted label index is built with the graph, never by a lookup,
    # and copies made before and after a scalar lookup stay independent
    g = load_edge_list(b"1000000 5\n5 70000\n70000 123\n")
    index = g._label_index
    assert index is not None  # sparse labels need it from the start
    assert g._dense_ids(np.array([70000, 4, 1000000])).tolist() == [2, -1, 3]
    assert g._label_index is index
    early = g.copy()  # copied before any scalar lookup
    assert g.dense_of(70000) == 2 and g.has_vertex(123)
    assert not g.has_vertex(6)
    with pytest.raises(KeyError):
        g.dense_of(6)
    assert g._label_index is index
    late = g.copy()  # copied after
    assert early._intern(np.array([42])).tolist() == [4]
    assert early.dense_of(42) == 4
    assert late._intern(np.array([7])).tolist() == [4]
    assert late.dense_of(7) == 4
    assert early._dense_ids(np.array([7, 42, 123])).tolist() == [-1, 4, 1]
    assert late._dense_ids(np.array([7, 42, 123])).tolist() == [4, -1, 1]
    assert g.vertex_count == 4
    assert not g.has_vertex(42) and not g.has_vertex(7)
    assert g._dense_ids(np.array([7, 42])).tolist() == [-1, -1]
    assert sorted(early.neighbors(5)) == [70000, 1000000]


def _index_form(g) -> str:
    index = g._label_index
    if index is None:
        return "identity"
    return "sorted" if isinstance(index, tuple) else "table"


def test_dense_ids_match_scalar_lookups():
    # batch and scalar lookups agree with a plain dict for identity, broken
    # identity, near-dense and sparse labels, in every form of the label
    # index, and copies made before and after lookups and interns stay
    # independent of each other
    rng = np.random.default_rng(4)
    near = np.sort(rng.choice(120, size=70, replace=False))  # holes in 0..119
    graphs = {
        "sparse": Graph.from_edges(rng.choice(10 ** 9, size=(100, 2),
                                              replace=False)),
        "small": load_edge_list(b"1000000 5\n5 70000\n70000 123\n"),
        "identity": Graph.from_edges([(0, 1), (2, 3)], num_vertices=6,
                                     dense_labels=True),
        "empty": Graph(),
        "near": Graph.from_edges(rng.permutation(near).reshape(-1, 2)),
        "two": load_edge_list(b"0 5\n"),
    }
    holes = sorted(set(range(120)) - set(near.tolist()))
    oracles = {name: dict(zip(g.labels().tolist(), range(g.vertex_count)))
               for name, g in graphs.items()}

    def copy(name, new):
        graphs[new], oracles[new] = graphs[name].copy(), dict(oracles[name])

    def intern(name, labels):
        oracle = oracles[name]
        got = graphs[name]._intern(np.array(labels, dtype=np.int64))
        for lab in labels:
            oracle.setdefault(lab, len(oracle))
        assert got.tolist() == [oracle[lab] for lab in labels]

    copy("small", "early")  # before any lookup
    assert graphs["small"].dense_of(70000) == 2
    copy("small", "late")  # after one
    intern("early", [42])
    intern("late", [7, 7, 123])
    copy("late", "later")  # after an intern
    intern("later", [8, 42])
    intern("sparse", rng.choice(10 ** 9, size=30).tolist())  # out of order
    copy("identity", "broken")
    intern("identity", [6, 7, 6])  # in order: still the identity
    intern("broken", [7, 6])  # out of order
    intern("empty", [3, 0])
    assert _index_form(graphs["near"]) == "table"
    copy("near", "near-inside")
    intern("near-inside", [holes[0], 130, holes[-1]])  # 130 < 2n: table
    copy("near", "near-across")
    intern("near-across", [holes[1], 300])  # 300 >= 2n: sorted
    copy("near-across", "near-back")
    intern("near-back", list(range(120, 300)))  # dense again
    intern("near-across", [holes[2]])  # stays sorted: merged in
    assert _index_form(graphs["two"]) == "sorted"
    intern("two", [1, 2, 3])  # labels 0..5 less 4 among 5 vertices
    copy("identity", "identity-far")
    intern("identity-far", [10 ** 9])
    forms = {name: _index_form(g) for name, g in graphs.items()}
    assert forms == {
        "sparse": "sorted", "small": "sorted", "identity": "identity",
        "empty": "table", "near": "table", "two": "table", "early": "sorted",
        "late": "sorted", "later": "sorted", "broken": "table",
        "near-inside": "table", "near-across": "sorted",
        "near-back": "table", "identity-far": "sorted"}
    for name, g in graphs.items():
        oracle = oracles[name]
        assert g.labels().tolist() == list(oracle), name
        assert [g.label_of(i) for i in range(g.vertex_count)] == list(oracle)
        for bad in (-1, g.vertex_count):
            with pytest.raises(IndexError):
                g.label_of(bad)
        queries = np.concatenate([rng.choice(list(oracle), 60),
                                  rng.integers(0, 2 * 10 ** 9, 30),
                                  [0, 5, 6, 7, 8, 42, 123, 2 ** 63 - 1]])
        want = [oracle.get(q, -1) for q in queries.tolist()]
        got = g._dense_ids(queries)
        assert got.dtype == np.int64 and got.tolist() == want, name
        for q, w in zip(queries.tolist(), want):
            assert g.has_vertex(q) == (w >= 0)
            if w >= 0:
                assert g.dense_of(q) == w
            else:
                with pytest.raises(KeyError):
                    g.dense_of(q)
    assert sorted(graphs["early"].neighbors(5)) == [70000, 1000000]


def test_identity_graph_and_a_copy_take_at_most_28_bytes_a_vertex():
    # per vertex and graph: start, length, capacity and label, plus slack
    n = 2 ** 20
    tracemalloc.start()
    try:
        g = Graph.from_edges([(0, 1)], num_vertices=n, dense_labels=True)
        h = g.copy()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.vertex_count == h.vertex_count == n
    assert peak <= 2 * 28 * n


# ----------------------------------------------------------------------
# writers


def test_writers_match_savetxt_bytes(tmp_path):
    g = load_edge_list(b"9 4\n4 2\n9 2\n17 9\n")
    buf = io.StringIO()
    save_edge_list(g, buf)
    ref = io.StringIO()
    np.savetxt(ref, np.array([[2, 4], [2, 9], [4, 9], [9, 17]]), fmt="%d")
    assert buf.getvalue() == ref.getvalue()
    write_core_file(tmp_path / "cores", g, peel(g))
    ref = io.StringIO()
    np.savetxt(ref, np.array([[2, 2], [4, 2], [9, 2], [17, 1]]), fmt="%d")
    assert (tmp_path / "cores").read_text() == ref.getvalue()
    save_edge_list(Graph(), tmp_path / "empty")
    assert (tmp_path / "empty").read_bytes() == b""
