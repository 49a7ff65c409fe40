"""Cascade-level tests against the pure-Python kernels, parity checks
ensuring the compiled backend reproduces results and counters exactly, the
backends' shared contract and input checks, the compiled lane's per-thread
arena, and its build and fallback."""

import importlib.util
import inspect
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import coremaint
from coremaint import Graph, build_delete_batch, build_insert_batch, peel
from coremaint import LevelTaskError, delete_edges, insert_edges, plan_round
from coremaint import _kernels_py
from coremaint.batch import EdgeBatch
from coremaint.gen import generate_er, sample_existing_edges, sample_new_edges
from coremaint.static_core import CoreMap
from coremaint._kernels_py import (TaskState, _Adj, drop_cascade,
                                   rule_out_cascade)
from coremaint._kernels_py import plan_scan as _plan_scan
from coremaint.kernels import BACKENDS, FALLBACK_REASON, get_backend

needs_c = pytest.mark.skipif("c" not in BACKENDS, reason=FALLBACK_REASON)


def path_graph(n):
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)],
                            num_vertices=n, dense_labels=True)


def adj_of(g):
    return _Adj(*g.adjacency_arrays())


# ----------------------------------------------------------------------
# negative cascade, insertion flavor (slack hits the level exactly)


def test_rule_out_without_level_neighbors():
    g = Graph.from_edges([(0, 1)], num_vertices=2, dense_labels=True)
    cores = np.array([1, 5], dtype=np.int32)
    st = TaskState(level=1)
    st.visited.add(0)
    rule_out_cascade(adj_of(g), cores, st, 0)
    assert st.removed == {0}


def test_rule_out_cascades_down_a_chain():
    g = path_graph(5)
    cores = np.ones(5, dtype=np.int32)
    st = TaskState(level=1)
    for v in range(5):
        st.visited.add(v)
        st.slack[v] = 2  # one above the level: a single loss removes
    rule_out_cascade(adj_of(g), cores, st, 0)
    assert st.removed == {0, 1, 2, 3, 4}


def test_rule_out_stops_at_high_slack():
    g = path_graph(2)
    cores = np.ones(2, dtype=np.int32)
    st = TaskState(level=1)
    st.visited.update({0, 1})
    st.slack[1] = 6
    rule_out_cascade(adj_of(g), cores, st, 0)
    assert st.removed == {0}
    assert st.slack[1] == 5


def test_rule_out_drives_untouched_slack_negative():
    g = path_graph(3)
    cores = np.ones(3, dtype=np.int32)
    st = TaskState(level=1)
    st.visited.add(1)
    rule_out_cascade(adj_of(g), cores, st, 1)
    assert st.slack[0] == -1 and st.slack[2] == -1
    assert st.removed == {1}


# ----------------------------------------------------------------------
# negative cascade, deletion flavor (strictly below the level removes)


def test_drop_cascade_without_level_neighbors():
    g = Graph.from_edges([(0, 1)], num_vertices=2, dense_labels=True)
    cores = np.array([2, 7], dtype=np.int32)
    st = TaskState(level=2)
    st.visited.add(0)
    drop_cascade(adj_of(g), cores, st, 0)
    assert st.removed == {0}


def test_drop_cascade_around_a_cycle():
    # cycle of level-2 vertices: one removal starves them all in turn
    n = 6
    g = Graph.from_edges([(i, (i + 1) % n) for i in range(n)],
                         num_vertices=n, dense_labels=True)
    cores = np.full(n, 2, dtype=np.int32)
    st = TaskState(level=2)
    st.visited.add(0)
    st.slack[0] = 1  # seeded below the level, as the caller guarantees
    drop_cascade(adj_of(g), cores, st, 0)
    assert st.removed == set(range(n))


def test_drop_cascade_threshold_not_hit():
    g = path_graph(2)
    cores = np.full(2, 1, dtype=np.int32)
    st = TaskState(level=1)
    st.visited.add(0)
    st.visited.add(1)
    st.slack[1] = 4  # as if supported elsewhere
    drop_cascade(adj_of(g), cores, st, 0)
    assert st.removed == {0}
    assert st.slack[1] == 3


# ----------------------------------------------------------------------
# backend parity: same vertices, same counters, same logs


@needs_c
def test_backends_agree_everywhere():
    rng = np.random.default_rng(321)
    for trial in range(40):
        n = int(rng.integers(5, 60))
        mask = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.35), 1)
        g0 = Graph.from_edges(np.argwhere(mask), num_vertices=n,
                              dense_labels=True)
        assert peel(g0, backend="python") == peel(g0, backend="c")

        mode = "insert" if trial % 2 == 0 else "delete"
        if mode == "insert":
            cand = [(u, v) for u in range(n) for v in range(u + 1, n)
                    if not g0.has_edge(u, v)]
        else:
            cand = list(g0.edges())
        if not cand:
            continue
        count = int(rng.integers(1, min(len(cand), 15) + 1))
        idx = rng.choice(len(cand), size=count, replace=False)
        picked = [cand[i] for i in idx]

        outcomes = []
        for backend in ("python", "c"):
            g = g0.copy()
            cores = peel(g)
            if mode == "insert":
                batch = build_insert_batch(g, picked)
                log = insert_edges(g, cores, batch, backend=backend)
            else:
                batch = build_delete_batch(g, picked)
                log = delete_edges(g, cores, batch, backend=backend)
            outcomes.append((cores.values.tolist(), log.counters,
                             [(r.levels, r.changed, r.counters)
                              for r in log.rounds]))
        assert outcomes[0] == outcomes[1], f"trial {trial} {mode}"


@needs_c
def test_compiled_scratch_is_reusable_and_clean():
    # two unrelated calls through the thread's arena must not interfere
    be = get_backend("c")
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5),
                          (3, 5)], dense_labels=True)
    cores = peel(g)
    g.remove_edge(2, 3)  # kernels run on the already-mutated arrays
    starts, lens, pool = g.adjacency_arrays()
    eu = np.array([2], dtype=np.int32)
    ev = np.array([3], dtype=np.int32)
    first = be.delete_level(starts, lens, pool, cores.values, 2, eu, ev)
    second = be.delete_level(starts, lens, pool, cores.values, 2, eu, ev)
    assert first[0].tolist() == second[0].tolist()
    assert first[1] == second[1]


CONTRACT = ("peel_kernel", "insert_level", "delete_level", "run_levels",
            "plan_scan", "remove_edges", "has_edges", "parse_pairs")


def parameters(fn):
    return [(p.name, p.default)
            for p in inspect.signature(fn).parameters.values()]


@needs_c
def test_backends_share_one_contract():
    c_module = get_backend("c")
    public = {name for name, obj in vars(c_module).items()
              if inspect.isfunction(obj) and not name.startswith("_")
              and obj.__module__ == c_module.__name__}
    assert public == set(CONTRACT)
    for name in CONTRACT:
        assert parameters(getattr(_kernels_py, name)) == \
            parameters(getattr(c_module, name)), name


def growing_batches(seed):
    """Insert and delete batches, on two workers, on a graph whose vertex
    count more than doubles from one insert batch to the next; yields after
    each batch."""
    rng = np.random.default_rng(seed)
    g = generate_er(8, 2, seed=seed)
    cores = peel(g)
    for step in range(6):
        n = g.vertex_count
        fresh = rng.integers(0, 3 * n, size=(4 * n, 2))
        insert_edges(g, cores, build_insert_batch(g, fresh.tolist()),
                     workers=2, backend="c")
        yield g, cores
        gone = sample_existing_edges(g, g.edge_count // 5, seed=step)
        delete_edges(g, cores, build_delete_batch(g, gone), workers=2,
                     backend="c")
        yield g, cores


@needs_c
def test_arena_grows_with_the_graph():
    # a fresh thread starts without an arena, and the graph grows past the
    # arenas' size between batches; every batch leaves each slot of the
    # calling thread's arena at its reset value, and the helpers' arenas
    # grow too (cores still equal peel)
    sizes, errors = [], []

    def run():
        try:
            for g, cores in growing_batches(5):
                assert cores == peel(g)
                arena = get_backend("c")._threads.arena
                sizes.append((g.vertex_count, arena.n))
                assert not any(getattr(arena, f).any() for f in
                               ("visited", "removed", "slack"))
                assert (arena.sup == -1).all() and (arena.csup == -1).all()
        except BaseException as exc:
            errors.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and not errors, errors
    assert all(n <= have for n, have in sizes)
    assert sizes[-1][0] > 4 * sizes[0][1]  # the arena had to grow


def two_thread_run(seed, n):
    """Cores, counters and rounds of a few insert and delete batches on an
    ER graph, with two workers."""
    g = generate_er(n, 4, seed=seed)
    cores = peel(g)
    out = []
    for i in range(3):
        batch = build_insert_batch(g, sample_new_edges(g, n // 4, seed=i))
        log = insert_edges(g, cores, batch, workers=2, backend="c")
        out.append((cores.values.tolist(), log.counters, log.rounds_executed))
        batch = build_delete_batch(g, sample_existing_edges(g, n // 3,
                                                            seed=i))
        log = delete_edges(g, cores, batch, workers=2, backend="c")
        out.append((cores.values.tolist(), log.counters, log.rounds_executed))
    assert cores == peel(g)
    return out


@needs_c
def test_concurrent_engines_match_sequential_runs():
    cases = [(21, 3000), (22, 700)]
    expect = [two_thread_run(*case) for case in cases]
    got, errors = [None, None], []
    start = threading.Barrier(2)

    def run(i):
        try:
            start.wait(timeout=30)
            got[i] = two_thread_run(*cases[i])
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert got == expect


@needs_c
def test_failed_round_drops_the_callers_arena(monkeypatch):
    # a stand-in for the round's foreign call dirties every slot of the
    # calling thread's arena, then reports an allocation failure on a
    # level that thread ran, as a failed push may leave a slot written but
    # not on the reset list; a one-level call goes the same way
    be = get_backend("c")
    level_args = level_call_args()
    args = dict(level_args)
    k = args.pop("k")
    round_args = dict(mode="delete", level_edges={k: (args.pop("eu"),
                                                      args.pop("ev"))},
                      workers=1, **args)
    clean = be.run_levels(**round_args)
    n = len(args["starts"])

    class StandIn:
        def cm_run_levels(self, *call):
            arena, rows = call[10], call[13]
            for v in range(n):
                arena.slack[v] = arena.sup[v] = arena.csup[v] = 0
                arena.visited[v] = arena.removed[v] = 1
            rows[0] = -1  # ALLOC_FAILED, on worker slot 0 (rows[9])

    monkeypatch.setattr(be, "_lib", StandIn())
    with pytest.raises(LevelTaskError) as err:
        be.run_levels(**round_args)
    assert isinstance(err.value.__cause__, MemoryError)
    monkeypatch.undo()
    again = be.run_levels(**round_args)
    assert [(r[0], r[1].tolist(), r[2]) for r in again] == \
        [(r[0], r[1].tolist(), r[2]) for r in clean]

    monkeypatch.setattr(be, "_lib", StandIn())
    with pytest.raises(MemoryError):
        be.delete_level(**level_args)
    monkeypatch.undo()
    moved, counters = be.delete_level(**level_args)
    assert [(k, moved.tolist(), counters)] == \
        [(r[0], r[1].tolist(), r[2]) for r in clean]


@needs_c
def test_compiled_call_releases_the_gil():
    # while one thread is inside a long compiled peel, the calling thread
    # keeps running Python; a foreign call that held the GIL would stall it
    # for the whole call
    n, d = 1 << 19, 8  # a circulant graph: v is joined to v +- 1..d (mod n)
    offsets = np.concatenate((np.arange(1, d + 1), n - np.arange(1, d + 1)))
    pool = ((np.arange(n)[:, None] + offsets) % n).astype(np.int32).ravel()
    starts = np.arange(0, 2 * d * n, 2 * d, dtype=np.int64)
    lens = np.full(n, 2 * d, dtype=np.int32)
    span, ticks = [], []

    def peel():
        start = time.perf_counter()
        cores = get_backend("c").peel_kernel(n, starts, lens, pool)
        span.extend((start, time.perf_counter(), int(cores.max())))

    worker = threading.Thread(target=peel)
    worker.start()
    deadline = time.perf_counter() + 60
    while worker.is_alive() and time.perf_counter() < deadline:
        ticks.append(time.perf_counter())
    worker.join(timeout=60)
    assert not worker.is_alive()
    start, end, top = span
    assert top == 2 * d
    inside = [t for t in ticks if start < t < end]
    longest = float(np.diff([start, *inside, end]).max())
    assert longest < (end - start) / 2, (longest, end - start)


def test_missing_cffi_falls_back_to_python(monkeypatch):
    # a fresh copy of the selection module, imported while cffi cannot be
    monkeypatch.setitem(sys.modules, "cffi", None)
    monkeypatch.delitem(sys.modules, "coremaint._kernels_c", raising=False)
    monkeypatch.delattr(coremaint, "_kernels_c", raising=False)
    monkeypatch.delenv("COREMAINT_BACKEND", raising=False)
    spec = importlib.util.find_spec("coremaint.kernels")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert fresh.available_backends() == ["python"]
    assert fresh.default_backend_name() == "python"
    assert fresh.FALLBACK_REASON.startswith("compiled kernels unavailable (")
    assert "cffi" in fresh.FALLBACK_REASON


@pytest.mark.parametrize("value", ["python", "fortran"])
def test_backend_override_is_read_at_import(monkeypatch, value):
    # a fresh copy of the selection module, imported under the override
    monkeypatch.setenv("COREMAINT_BACKEND", value)
    spec = importlib.util.find_spec("coremaint.kernels")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    monkeypatch.setenv("COREMAINT_BACKEND", "c")  # read once, not again
    if value == "python":
        assert fresh.get_backend() is _kernels_py
        assert fresh.default_backend_name() == "python"
    else:
        with pytest.raises(ValueError) as err:
            fresh.get_backend()
        assert str(err.value) == (f"unknown kernel backend 'fortran'; "
                                  f"available: {fresh.available_backends()}")
    assert fresh.get_backend("python") is _kernels_py


# ----------------------------------------------------------------------
# compiled lane: inputs are checked before they reach C


def level_call_args():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], dense_labels=True)
    cores = peel(g)
    g.remove_edge(2, 3)
    starts, lens, pool = g.adjacency_arrays()
    return dict(starts=starts, lens=lens, pool=pool, cores=cores.values,
                k=1, eu=np.array([2], dtype=np.int32),
                ev=np.array([3], dtype=np.int32))


@needs_c
@pytest.mark.parametrize("field, bad, error", [
    ("cores", lambda a: a.astype(np.int64), TypeError),
    ("pool", lambda a: np.repeat(a, 2)[::2], TypeError),
    ("ev", lambda a: np.array([4], dtype=np.int32), ValueError),
    ("eu", lambda a: np.array([-1], dtype=np.int32), ValueError),
    ("lens", lambda a: a[:-1], ValueError),
    ("k", lambda k: k + 1, ValueError),  # the edge is not at level k
])
def test_compiled_lane_rejects_bad_inputs(field, bad, error):
    be = get_backend("c")
    args = level_call_args()
    moved, counters = be.delete_level(**args)
    args[field] = bad(args[field])
    lanes = (be, _kernels_py) if error is ValueError else (be,)
    for kernel in [f for lane in lanes
                   for f in (lane.insert_level, lane.delete_level)]:
        with pytest.raises(error):
            kernel(**args)
    # the rejected calls left the thread's arena as they found it
    again = be.delete_level(**level_call_args())
    assert (again[0].tolist(), again[1]) == (moved.tolist(), counters)


@needs_c
@pytest.mark.parametrize("bad", [
    "1 2\n", bytearray(b"1 2\n"), memoryview(b"1 2\n"),
    np.frombuffer(b"1 2\n", dtype=np.uint8), None, [b"1 2\n"]],
    ids=["str", "bytearray", "memoryview", "ndarray", "None", "lines"])
def test_compiled_parse_rejects_bad_inputs(bad):
    be = get_backend("c")
    with pytest.raises(TypeError):
        be.parse_pairs(bad)
    pairs, comments = be.parse_pairs(b"# c\n1 2\n3 4")
    assert (pairs.tolist(), comments) == ([[1, 2], [3, 4]], 1)


def removal_call_args():
    """A triangle 0-1-2 with a tail 2-3, and the directed entries of its
    edge {1, 2} grouped by source, as ``remove_edges`` takes them."""
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], dense_labels=True)
    starts, lens, pool = g.adjacency_arrays()
    return g, dict(starts=starts, lens=lens, pool=pool,
                   src=np.array([1, 2], dtype=np.int32),
                   dst=np.array([2, 1], dtype=np.int32))


def graph_arrays(g):
    return [a.tolist() for a in g.adjacency_arrays()] + [g.edge_count]


@needs_c
@pytest.mark.parametrize("field, bad, error", [
    ("lens", lambda a: a.astype(np.int64), TypeError),
    ("pool", lambda a: np.repeat(a, 2)[::2], TypeError),
    ("dst", lambda a: np.array([2, 4], dtype=np.int32), ValueError),
    ("src", lambda a: np.array([-1, 2], dtype=np.int32), ValueError),
    ("lens", lambda a: a[:-1], ValueError),
    ("dst", lambda a: a[:1], ValueError),
    ("src", lambda a: a[::-1].copy(), ValueError),  # not grouped by source
])
def test_compiled_removal_rejects_bad_inputs(field, bad, error):
    # the Python lane takes any integer arrays, so it shares the value
    # checks only
    for lane in ("c", "python") if error is ValueError else ("c",):
        g, args = removal_call_args()
        before = graph_arrays(g)
        args[field] = bad(args[field])
        with pytest.raises(error):
            get_backend(lane).remove_edges(**args)
        assert graph_arrays(g) == before
        g, args = removal_call_args()
        get_backend(lane).remove_edges(**args)
        assert sorted(map(tuple, g.edge_array().tolist())) == [
            (0, 1), (0, 2), (2, 3)]


@needs_c
@pytest.mark.parametrize("field, bad, error", [
    ("cores", lambda a: a.astype(np.int64), TypeError),
    ("us", lambda a: np.repeat(a, 2)[::2], TypeError),
    ("vs", lambda a: np.array([3, 3, 5], dtype=np.int32), ValueError),
    ("us", lambda a: np.array([-1, 0, 1], dtype=np.int32), ValueError),
    ("vs", lambda a: a[:-1], ValueError),
])
def test_compiled_plan_scan_rejects_bad_inputs(field, bad, error):
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], dense_labels=True)
    cores = peel(g)
    batch = build_insert_batch(g, [(0, 3), (1, 3), (3, 4)])
    cores.fit_to(g)  # vertex 4 is new
    before = (graph_arrays(g), cores.values.tolist(), batch.alive.tolist())
    us, vs = batch.pairs.T.copy()
    args = dict(us=us, vs=vs, cores=cores.values)
    expect = get_backend("c").plan_scan(**args)
    args[field] = bad(args[field])
    for lane in ("c", "python") if error is ValueError else ("c",):
        with pytest.raises(error):
            get_backend(lane).plan_scan(**args)
    if field == "cores":  # plan_round passes the core map through
        with pytest.raises(error):
            plan_round(batch, CoreMap(args["cores"]), backend="c")
    assert (graph_arrays(g), cores.values.tolist(),
            batch.alive.tolist()) == before
    assert expect.tolist() == _plan_scan(us, vs, cores.values).tolist()


# ----------------------------------------------------------------------
# planner scan and edge removal: the Python and compiled lanes agree


def plans_equal(a, b):
    return (a.levels == b.levels and a.selected_indices == b.selected_indices
            and a.level_edges.keys() == b.level_edges.keys()
            and all(x.dtype == y.dtype and np.array_equal(x, y)
                    for k in a.level_edges
                    for x, y in zip(a.level_edges[k], b.level_edges[k])))


@needs_c
@pytest.mark.parametrize("mode", ["insert", "delete"])
def test_plan_lanes_agree(mode):
    rng = np.random.default_rng(44)
    rounds = blocked = 0
    for _ in range(30):
        n = int(rng.integers(20, 80))
        mask = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.4), 1)
        g = Graph.from_edges(np.argwhere(mask), num_vertices=n,
                             dense_labels=True)
        cores = peel(g)
        if mode == "insert":
            cand = np.argwhere(np.triu(~mask, 1))
        else:
            cand = g.edge_array()
        cand = cand[rng.choice(len(cand), size=min(len(cand), 60),
                               replace=False)]
        build = build_insert_batch if mode == "insert" else build_delete_batch
        batch = build(g, cand.tolist())
        twin = EdgeBatch(batch.pairs, batch.alive.copy(), batch.multiplicity)
        while batch.remaining:
            plans = [plan_round(b, cores, backend=lane)
                     for b, lane in ((batch, "python"), (twin, "c"))]
            assert plans_equal(*plans)
            for b, plan in zip((batch, twin), plans):
                b.alive[plan.selected_indices] = False
            assert np.array_equal(batch.alive, twin.alive)
            blocked += batch.remaining
            rounds += 1
    assert rounds > 60
    assert blocked > 0  # some rounds left edges pending


def removal_case():
    """A graph whose hub 0 has 60 edges, and a removal that takes 40 of
    them, every edge of vertex 1 and a random sample of the rest."""
    rng = np.random.default_rng(8)
    n = 90
    keys = set()
    for v in range(1, 61):
        keys.add((0, v))
    while len(keys) < 400:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        keys.add((u, v))
    g = Graph.from_edges(sorted(keys), dense_labels=True)
    g._add_dense(np.array([0, 1]), np.array([70, 80]))  # relocates 0 and 1
    edges = sorted(map(tuple, g.edge_array().tolist()))
    gone = [e for e in edges if e[0] == 0][:40]
    gone += [e for e in edges if 1 in e and e not in gone]
    rest = [e for e in edges if e not in gone]
    gone += [rest[i] for i in rng.choice(len(rest), 50, replace=False)]
    order = rng.permutation(len(gone))
    pairs = np.array(gone, dtype=np.int32)[order]
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip][:, ::-1]
    return g, pairs, set(edges) - set(gone)


@needs_c
def test_removal_lanes_agree():
    outcomes = []
    for lane in ("python", "c"):
        g, pairs, left = removal_case()
        g._remove_dense(pairs[:, 0], pairs[:, 1], backend=lane)
        g.check_invariants()
        assert set(map(tuple, g.edge_array().tolist())) == left
        assert g.degree(1) == 0 and 0 < g.degree(0) <= 62 - 40
        outcomes.append([g._starts.tolist(), g._lens.tolist(),
                         g._pool.tolist(), g.edge_count])
    assert outcomes[0] == outcomes[1]


@needs_c
def test_lookup_lanes_agree():
    g, _, left = removal_case()  # blocks relocated, a hub of 62 edges
    rng = np.random.default_rng(9)
    n = g.vertex_count
    edges = g.edge_array().astype(np.int32)
    us = np.concatenate((rng.integers(0, n, 400), edges[:, 0], edges[:, 1]))
    vs = np.concatenate((rng.integers(0, n, 400), edges[:, 1], edges[:, 0]))
    expect = [(min(u, v), max(u, v)) in set(map(tuple, edges.tolist()))
              for u, v in zip(us.tolist(), vs.tolist())]
    for lane in ("python", "c"):
        assert g._has_dense(us, vs, backend=lane).tolist() == expect


@needs_c
@pytest.mark.parametrize("field, bad, error", [
    ("pool", lambda a: np.repeat(a, 2)[::2], TypeError),
    ("us", lambda a: a.astype(np.int64), TypeError),
    ("vs", lambda a: np.array([1, 4], dtype=np.int32), ValueError),
    ("us", lambda a: np.array([-1, 2], dtype=np.int32), ValueError),
    ("vs", lambda a: a[:1], ValueError),
    ("lens", lambda a: a[:-1], ValueError),
])
def test_compiled_lookup_rejects_bad_inputs(field, bad, error):
    g, args = removal_call_args()
    del args["src"], args["dst"]
    args["us"] = np.array([1, 2], dtype=np.int32)
    args["vs"] = np.array([2, 3], dtype=np.int32)
    assert get_backend("c").has_edges(**args).tolist() == [True, True]
    args[field] = bad(args[field])
    for lane in ("c", "python") if error is ValueError else ("c",):
        with pytest.raises(error):
            get_backend(lane).has_edges(**args)


@pytest.mark.parametrize("lane", ["python",
                                  pytest.param("c", marks=needs_c)])
@pytest.mark.parametrize("us, vs", [
    ([0, 1], [1, 3]),  # {1, 3} is absent
    ([0, 1], [1, 0]),  # {0, 1} twice
    ([1, 2, 1], [2, 1, 2]),  # {1, 2} three times
    ([2], [2]),  # self-loop
], ids=["absent", "repeated", "repeated-thrice", "self-loop"])
def test_removal_rejects_absent_or_repeated_pairs(lane, us, vs):
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], dense_labels=True)
    before = [g._starts.tolist(), g._lens.tolist(), g._pool.tolist(),
              g.edge_count]
    with pytest.raises(ValueError):
        g._remove_dense(np.array(us), np.array(vs), backend=lane)
    assert [g._starts.tolist(), g._lens.tolist(), g._pool.tolist(),
            g.edge_count] == before


@pytest.mark.parametrize("breakage", ["no compiler", "broken source"])
def test_failed_build_falls_back_to_python(breakage, tmp_path):
    package = tmp_path / "coremaint"
    shutil.copytree(Path(coremaint.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "COREMAINT_BACKEND"}
    env["PYTHONPATH"] = str(tmp_path)
    if breakage == "no compiler":
        env["PATH"] = str(tmp_path)  # holds no cc
    else:
        with open(package / "_kernels.c", "a") as fh:
            fh.write("\nthis is not C;\n")
    probe = ("from coremaint import kernels; "
             "print(kernels.default_backend_name()); "
             "print(kernels.FALLBACK_REASON)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    name, reason = out.splitlines()
    assert name == "python"
    assert reason.startswith("compiled kernels unavailable (")

    insert = subprocess.run(
        [sys.executable, "-m", "coremaint", "insert", "--gen", "er",
         "--n", "40", "--deg", "3", "--batch-size", "5"],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert f"backend=python ({reason})" in insert.stdout


@needs_c
def test_new_build_removes_stale_builds(tmp_path):
    package = tmp_path / "coremaint"
    shutil.copytree(Path(coremaint.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache = package / "__pycache__"
    cache.mkdir()
    stale = cache / "_kernels.0000000000000000.so"
    stale.write_bytes(b"built from an older source")
    env = {k: v for k, v in os.environ.items() if k != "COREMAINT_BACKEND"}
    env["PYTHONPATH"] = str(tmp_path)
    probe = ("from coremaint import kernels; "
             "print(kernels.default_backend_name())")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["c"]
    assert not stale.exists()
    assert len(list(cache.glob("_kernels.*.so"))) == 1
