"""The support that the core map carries: each vertex's neighbours of core
at least its own, kept up to date by the engines, and counted again only
when the graph's edges changed outside them."""

import numpy as np
import pytest

from coremaint import (Graph, LevelTaskError, build_delete_batch,
                       build_insert_batch, delete_edges, get_backend,
                       insert_edges, peel)
from coremaint.gen import generate_ba, generate_er, sample_existing_edges
from coremaint.kernels import BACKENDS, FALLBACK_REASON

needs_c = pytest.mark.skipif("c" not in BACKENDS, reason=FALLBACK_REASON)
LANES = [pytest.param("python", id="python"),
         pytest.param("c", id="c", marks=needs_c)]


def fresh_support(g, cores):
    return get_backend("python").count_support(*g.adjacency_arrays(),
                                               cores.values)


class Counting:
    """A real backend whose entry points count their calls."""

    def __init__(self, real):
        self.NAME = real.NAME
        self.real = real
        self.calls = {}

    def __getattr__(self, name):
        fn = getattr(self.real, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted


def stateful_run(lane, workers, seed):
    """Interleaved insert and delete batches on a BA graph, some with new
    vertices, and a re-insertion of a removed hub's edges (replayed free
    rounds); yields the graph, the cores and the log after each batch."""
    rng = np.random.default_rng(seed)
    g = generate_ba(150, 3, seed=seed)
    cores = peel(g)
    hub = int(np.argmax([g.degree(v) for v in range(g.vertex_count)]))
    for step in range(6):
        n = g.vertex_count
        fresh = rng.integers(0, n + 10, size=(40, 2))
        batch = build_insert_batch(g, fresh.tolist())
        yield g, cores, insert_edges(g, cores, batch, workers=workers,
                                     backend=lane)
        gone = sample_existing_edges(g, 30, seed=seed + step)
        yield g, cores, delete_edges(g, cores, build_delete_batch(g, gone),
                                     workers=workers, backend=lane)
    spokes = [(hub, w) for w in g.neighbors(hub)]
    yield g, cores, delete_edges(g, cores, build_delete_batch(g, spokes),
                                 workers=workers, backend=lane)
    yield g, cores, insert_edges(g, cores, build_insert_batch(g, spokes),
                                 workers=workers, backend=lane)


@pytest.mark.parametrize("seed", [1, 2])
def test_support_matches_a_fresh_count_after_every_batch(seed):
    runs = {}
    replayed = 0
    for lane, workers in (("python", 1), ("c", 1), ("c", 2), ("c", 8)):
        if lane not in BACKENDS:
            continue
        seen = []
        for g, cores, log in stateful_run(lane, workers, seed):
            assert cores == peel(g)
            assert cores.counted_for is g.edge_state
            assert np.array_equal(cores.support, fresh_support(g, cores))
            seen.append(cores.support.tobytes())
            replayed += log.replayed_rounds
        runs[lane, workers] = seen
    first = next(iter(runs.values()))
    assert all(seen == first for seen in runs.values())
    assert replayed > 0


@pytest.mark.parametrize("lane", LANES)
def test_a_replayed_round_leaves_the_support_as_found(lane):
    # the triangle on three isolated vertices is one free level whose
    # riser peel leaves survivors
    g = Graph.from_edges([(3, 4), (5, 6)], num_vertices=7, dense_labels=True)
    cores = peel(g)
    before = cores.support.copy()
    g._add_dense(np.array([0, 0, 1]), np.array([1, 2, 2]))
    be = get_backend(lane)
    moved, rows = be.run_levels("insert", *g.adjacency_arrays(),
                                cores.values, cores.support,
                                np.array([0], np.int64),
                                np.array([0, 3], np.int64),
                                np.array([0, 0, 1], np.int32),
                                np.array([1, 2, 2], np.int32), 1)
    assert rows[0, -1] == 3  # survivors
    assert np.array_equal(cores.support, before)


def bad_backend(real, error, level):
    """``real``, but a round with a task at ``level`` runs its other levels
    and then raises ``error`` (as ``LevelTaskError`` for an error)."""

    class Bad(Counting):
        def __getattr__(self, name):
            if name != "run_levels":
                return super().__getattr__(name)

            def failing(mode, starts, lens, pool, cores, support, ks,
                        offsets, us, vs, workers, free=-1):
                keep = ks != level
                if keep.all():
                    return real.run_levels(mode, starts, lens, pool, cores,
                                           support, ks, offsets, us, vs,
                                           workers, free)
                counts = np.diff(offsets)
                picked = np.repeat(keep, counts)
                kept = np.concatenate(([0], counts[keep].cumsum()))
                real.run_levels(mode, starts, lens, pool, cores, support,
                                ks[keep], kept, us[picked], vs[picked],
                                workers, free)
                exc = error("injected")
                if isinstance(exc, Exception):
                    raise LevelTaskError(level, exc) from exc
                raise exc
            return failing

    return Bad(real)


def two_level_state(mode):
    """Paths 0-1-5 and 6-7 (level 1) and triangles 2-3-4 and 8-9-10
    (level 2), with a batch of two level-1 pairs and a level-2 pair."""
    g = Graph.from_edges([(0, 1), (1, 5), (6, 7), (2, 3), (3, 4), (2, 4),
                          (8, 9), (9, 10), (8, 10)], dense_labels=True)
    if mode == "insert":
        return g, build_insert_batch(g, [(0, 6), (5, 7), (2, 8)])
    return g, build_delete_batch(g, [(0, 1), (6, 7), (2, 3)])


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("mode", ["insert", "delete"])
@pytest.mark.parametrize("error, raised", [
    pytest.param(RuntimeError, LevelTaskError, id="error"),
    pytest.param(KeyboardInterrupt, KeyboardInterrupt, id="interrupt"),
])
def test_a_failed_batch_leaves_the_next_one_to_recount(lane, mode, error,
                                                       raised):
    g, batch = two_level_state(mode)
    cores = peel(g, backend=lane)
    before = (sorted(g.edges()), cores.values.copy(), batch.alive.copy())
    bad = bad_backend(get_backend(lane), error, 2)
    run = insert_edges if mode == "insert" else delete_edges
    with pytest.raises(raised):
        run(g, cores, batch, workers=2, backend=bad)
    assert sorted(g.edges()) == before[0]
    assert np.array_equal(cores.values, before[1])
    assert np.array_equal(batch.alive, before[2])
    assert cores.counted_for is None
    be = Counting(get_backend(lane))
    log = run(g, cores, batch, workers=2, backend=be, audit=True)
    assert be.calls["count_support"] >= 1 and log.audit_violations == []
    assert cores == peel(g)
    assert np.array_equal(cores.support, fresh_support(g, cores))


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("edit", ["add_edge", "remove_edge"])
def test_a_direct_edit_between_batches_forces_a_recount(lane, edit):
    g = generate_er(200, 4, seed=6)
    cores = peel(g)
    if edit == "add_edge":
        u, v = next((a, b) for a in range(200) for b in range(a + 1, 200)
                    if not g.has_edge(a, b))
    else:
        u, v = next(g.edges())
    token = g.edge_state
    getattr(g, edit)(u, v)
    assert g.edge_state is not token
    # the edited graph's cores, with the support from before the edit
    edited = peel(g)
    edited.support, edited.counted_for = cores.support, cores.counted_for
    be = Counting(get_backend(lane))
    batch = build_delete_batch(g, sample_existing_edges(g, 10, seed=6))
    delete_edges(g, edited, batch, backend=be)
    assert be.calls["count_support"] == 1
    assert edited == peel(g)
    assert np.array_equal(edited.support, fresh_support(g, edited))


@pytest.mark.parametrize("lane", LANES)
def test_copies_share_the_support_without_a_recount(lane):
    # corebench's reset: a copy of the loaded graph and of its core map
    g0 = generate_er(300, 4, seed=8)
    cores0 = peel(g0, backend=lane)
    for step in range(2):
        g, cores = g0.copy(), cores0.copy()
        assert cores.counted_for is g.edge_state
        be = Counting(get_backend(lane))
        batch = build_delete_batch(g, sample_existing_edges(g, 20,
                                                            seed=step))
        delete_edges(g, cores, batch, backend=be)
        insert_edges(g, cores, build_insert_batch(g, [(0, 299), (5, 350)]),
                     backend=be)
        assert "count_support" not in be.calls
        assert cores == peel(g)
        assert np.array_equal(cores.support, fresh_support(g, cores))


@needs_c
def test_support_entry_point_is_one_foreign_call_and_checks_dtypes():
    g = generate_er(100, 3, seed=2)
    cores = peel(g, backend="c")
    be = get_backend("c")
    got = be.count_support(*g.adjacency_arrays(), cores.values)
    assert got.dtype == np.int32
    assert np.array_equal(got, fresh_support(g, cores))
    with pytest.raises(TypeError):
        be.count_support(*g.adjacency_arrays(),
                         cores.values.astype(np.int64))
    with pytest.raises(ValueError):
        be.count_support(*g.adjacency_arrays(), cores.values[:-1])
