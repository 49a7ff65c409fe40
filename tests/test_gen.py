import itertools

import numpy as np
import pytest

from coremaint import gen, load_edge_list, peel
from coremaint.gen import (_decode_pairs, generate_ba, generate_er,
                           generate_graph, sample_existing_edges,
                           sample_new_edges)


@pytest.mark.parametrize("n", [2, 3, 7, 50])
def test_pair_decoding_enumerates_every_pair(n):
    total = n * (n - 1) // 2
    decoded = _decode_pairs(np.arange(total, dtype=np.int64), n)
    expected = list(itertools.combinations(range(n), 2))
    assert list(map(tuple, decoded.tolist())) == expected


def test_ba_uniform_core_structure():
    g = generate_ba(1000, 8, seed=7)
    cores = peel(g)
    assert (cores.values == 8).all()


def test_ba_deterministic_per_seed():
    a = generate_ba(300, 4, seed=11)
    b = generate_ba(300, 4, seed=11)
    c = generate_ba(300, 4, seed=12)
    assert sorted(a.edges()) == sorted(b.edges())
    assert sorted(a.edges()) != sorted(c.edges())


def test_ba_parameter_validation():
    with pytest.raises(ValueError):
        generate_ba(5, 8, seed=1)  # needs n >= attach + 1
    with pytest.raises(ValueError):
        generate_graph("rm", 10, 2, seed=1)


def test_er_core_structure_at_scale():
    g = generate_er(2**15, 8, seed=1)
    cores = peel(g)
    max_core = int(cores.values.max())
    assert 8 <= max_core <= 12  # observed value with tolerance
    # the mass sits near the top of the core range
    assert (cores.values >= max_core - 2).mean() > 0.6


def test_er_zero_degree_is_empty():
    g = generate_er(10, 0, seed=3)
    assert g.edge_count == 0
    assert peel(g).values.tolist() == [0] * 10


def test_er_edge_count_and_determinism():
    g1 = generate_er(5000, 8, seed=2)
    g2 = generate_er(5000, 8, seed=2)
    assert sorted(g1.edges()) == sorted(g2.edges())
    # expected m = deg * n, binomially concentrated
    assert abs(g1.edge_count - 8 * 5000) < 5 * np.sqrt(8 * 5000)
    g1.check_invariants()


def test_er_matches_ba_edge_count_convention():
    er = generate_er(2000, 8, seed=4)
    ba = generate_ba(2000, 8, seed=4)
    assert abs(er.edge_count - ba.edge_count) < 0.05 * ba.edge_count


def test_sample_new_edges_are_absent_and_distinct():
    g = generate_er(500, 6, seed=9)
    picked = sample_new_edges(g, 200, seed=1)
    assert len(set(picked)) == 200
    assert all(not g.has_edge(u, v) for u, v in picked)


def one_candidate_at_a_time(g, count, seed, level=None, cores=None):
    """Reference sampler: one u, v draw and one edge lookup per candidate."""
    rng = np.random.default_rng(seed)
    n, vals = g.vertex_count, None if cores is None else cores.values
    out, seen = [], set()
    while len(out) < count:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        if (u, v) in seen or g.has_edge(g.label_of(u), g.label_of(v)):
            continue
        if level is not None and min(vals[u], vals[v]) != level:
            continue
        seen.add((u, v))
        out.append((g.label_of(u), g.label_of(v)))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sample_new_edges_matches_one_candidate_at_a_time(seed):
    # sparse labels, so dense ids and labels differ
    text = "".join(f"{3 * u + 7} {3 * v + 7}\n"
                   for u, v in generate_er(300, 40, seed=seed).edges())
    g = load_edge_list(text.encode())
    cores = peel(g)
    level = int(np.median(cores.values))
    assert sample_new_edges(g, 500, seed) == \
        one_candidate_at_a_time(g, 500, seed)
    assert sample_new_edges(g, 30, seed, level=level, cores=cores) == \
        one_candidate_at_a_time(g, 30, seed, level=level, cores=cores)


def test_sample_new_edges_gives_up_after_the_try_limit(monkeypatch):
    monkeypatch.setattr(gen, "MAX_TRIES_FACTOR", 20)
    g = load_edge_list(b"0 1\n1 2\n0 2\n")
    with pytest.raises(RuntimeError, match="after 40 tries"):
        sample_new_edges(g, 2, seed=1)


def test_sample_existing_edges_are_present_and_distinct():
    g = generate_er(500, 6, seed=9)
    picked = sample_existing_edges(g, 200, seed=1)
    assert len(set(picked)) == 200
    assert all(g.has_edge(u, v) for u, v in picked)


def test_stratified_sampling_respects_level():
    g = generate_er(800, 6, seed=14)
    cores = peel(g)
    per_level = np.bincount(
        np.minimum(cores.values[g.edge_array()[:, 0]],
                   cores.values[g.edge_array()[:, 1]]))
    level = int(per_level.argmax())
    avail = int(per_level[level])
    count = max(1, avail // 5)  # the 20 percent convention
    picked = sample_existing_edges(g, count, seed=3, level=level,
                                   cores=cores)
    vals = cores.values
    for u, v in picked:
        assert min(vals[g.dense_of(u)], vals[g.dense_of(v)]) == level
    new = sample_new_edges(g, 20, seed=3, level=level, cores=cores)
    for u, v in new:
        assert min(vals[g.dense_of(u)], vals[g.dense_of(v)]) == level


@pytest.mark.parametrize("sample", [sample_new_edges, sample_existing_edges])
def test_sampling_at_a_level_needs_cores(sample):
    g = generate_er(50, 4, seed=1)
    with pytest.raises(ValueError, match="needs cores"):
        sample(g, 5, 1, level=2)
