"""The round's level fan-out: ``run_levels`` on both kernel lanes, the
compiled lane's helper threads, ``run_level_tasks`` and the engine's round
rollback."""

import _thread
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from coremaint import (Graph, LevelTaskError, build_delete_batch,
                       build_insert_batch, delete_edges, get_backend,
                       insert_edges, peel, plan_round, run_level_tasks,
                       sequential_baseline)
from coremaint.gen import generate_er, sample_existing_edges, sample_new_edges
from coremaint.kernels import BACKENDS, FALLBACK_REASON

needs_c = pytest.mark.skipif("c" not in BACKENDS, reason=FALLBACK_REASON)
LANES = [pytest.param("python", id="python"),
         pytest.param("c", id="c", marks=needs_c)]


def lanes():
    """The available backends, for tests that compare them in a loop."""
    return [get_backend(name) for name in sorted(BACKENDS)]


def planned_round(g, cores, mode, pairs):
    """The first round of a batch of ``pairs``, applied to ``g``: the
    arguments of ``run_levels`` without mode and workers."""
    insert = mode == "insert"
    batch = (build_insert_batch if insert else build_delete_batch)(g, pairs)
    plan = plan_round(batch, cores)
    edges = batch.pairs[plan.selected_indices]
    (g._add_dense if insert else g._remove_dense)(edges[:, 0], edges[:, 1])
    return (*g.adjacency_arrays(), cores.values, plan.level_edges)


def random_round(seed, mode, n=600, size=80):
    """A random multi-level round on an ER graph."""
    g = generate_er(n, 5, seed=seed)
    sample = sample_new_edges if mode == "insert" else sample_existing_edges
    args = planned_round(g, peel(g), mode, sample(g, size, seed=seed))
    assert len(args[-1]) > 1
    return args


def clique_round():
    """Cliques K2..K9 with one edge deleted from each: eight tiny delete
    levels, 1 to 8."""
    edges, base = [], 0
    for size in range(2, 10):
        edges += [(base + i, base + j) for i in range(size)
                  for j in range(i + 1, size)]
        base += size
    g = Graph.from_edges(edges, dense_labels=True)
    firsts = np.cumsum([0, *range(2, 9)])
    args = planned_round(g, peel(g), "delete",
                         [(int(b), int(b) + 1) for b in firsts])
    assert sorted(args[-1]) == list(range(1, 9))
    return args


def circulant_round(sizes=(1 << 18, 1 << 17), degrees=(8, 4)):
    """Circulant graphs (v joined to v +- 1..d mod the size), one per
    size, with the edge {0, 1} of each deleted: every vertex of each one
    falls, so each level task walks its whole graph."""
    starts, lens, pool, cores, level_edges = [], [], [], [], {}
    base = at = 0
    for size, d in zip(sizes, degrees):
        offsets = np.concatenate((np.arange(1, d + 1),
                                  size - np.arange(1, d + 1)))
        block = base + (np.arange(size)[:, None] + offsets) % size
        pool.append(block.astype(np.int32).ravel())
        starts.append(at + 2 * d * np.arange(size, dtype=np.int64))
        lens.append(np.full(size, 2 * d, dtype=np.int32))
        cores.append(np.full(size, 2 * d, dtype=np.int32))
        level_edges[2 * d] = (np.array([base], dtype=np.int32),
                              np.array([base + 1], dtype=np.int32))
        base += size
        at += 2 * d * size
    starts, lens, pool, cores = map(np.concatenate,
                                    (starts, lens, pool, cores))
    ends = [(int(eu[0]), int(ev[0])) for eu, ev in level_edges.values()]
    src = np.array([x for u, v in sorted(ends) for x in (u, v)],
                   dtype=np.int32)
    dst = np.array([x for u, v in sorted(ends) for x in (v, u)],
                   dtype=np.int32)
    get_backend("python").remove_edges(starts, lens, pool, src, dst)
    return starts, lens, pool, cores, level_edges


def per_level(be, mode, starts, lens, pool, cores, level_edges):
    """{level: (moved ids, counters)} from one level-kernel call each."""
    kernel = be.insert_level if mode == "insert" else be.delete_level
    return {k: (moved.tolist(), counters)
            for k, (moved, counters) in (
                (k, kernel(starts, lens, pool, cores, k, eu, ev))
                for k, (eu, ev) in level_edges.items())}


def outcome(rows):
    return {k: (moved.tolist(), counters)
            for k, moved, counters, *_ in rows}


def thread_count():
    return len(os.listdir("/proc/self/task"))


# ----------------------------------------------------------------------
# run_levels: the same results as per-level calls, on either lane


def test_single_worker_is_sequential_and_ordered():
    args = random_round(1, "delete")
    for be in lanes():
        rows = be.run_levels("delete", *args, 1)
        assert [r[0] for r in rows] == sorted(args[-1])
        assert {r[5] for r in rows} == {0}  # all on the calling thread


def test_many_workers_same_result():
    for seed in range(6):
        for mode in ("insert", "delete"):
            args = random_round(seed, mode)
            expect = per_level(get_backend("python"), mode, *args)
            for be in lanes():
                for workers in (1, 2, 8):
                    rows = be.run_levels(mode, *args, workers)
                    assert outcome(rows) == expect, (seed, mode, be.NAME,
                                                     workers)
                    assert all(0 <= r[5] < workers for r in rows)


def test_worker_limit_validation():
    args = random_round(1, "insert")
    for be in lanes():
        with pytest.raises(ValueError):
            be.run_levels("insert", *args, 0)
        with pytest.raises(ValueError):
            be.run_levels("update", *args, 1)


@pytest.mark.parametrize("workers", [1, 4])
def test_failure_names_the_level(workers):
    starts, lens, pool, cores, level_edges = random_round(2, "delete")
    clean = {k: level_edges[k] for k in level_edges}
    k = sorted(level_edges)[1]
    eu, ev = level_edges[k]
    level_edges[k] = (eu, np.concatenate([ev[:-1], [len(starts) + 5]])
                      .astype(np.int32))
    for be in lanes():
        with pytest.raises(LevelTaskError) as err:
            be.run_levels("delete", starts, lens, pool, cores, level_edges,
                          workers)
        assert err.value.level == k
        assert isinstance(err.value.__cause__, ValueError)
        # no arena kept a trace of the failed round
        rows = be.run_levels("delete", starts, lens, pool, cores, clean,
                             workers)
        assert outcome(rows) == per_level(be, "delete", starts, lens, pool,
                                          cores, clean)


def test_an_edge_off_its_level_is_rejected():
    # the tasks of a round move disjoint vertex sets only if each edge lies
    # at its level
    starts, lens, pool, cores, level_edges = random_round(5, "insert")
    low, high = sorted(level_edges)[:2]
    moved = dict(level_edges)
    moved[high] = tuple(np.concatenate([a[:1], b]) for a, b in
                        zip(level_edges[low], level_edges[high]))
    for be in lanes():
        with pytest.raises(LevelTaskError) as err:
            be.run_levels("insert", starts, lens, pool, cores, moved, 2)
        assert err.value.level == high
        assert "not at level" in str(err.value.__cause__)
        rows = be.run_levels("insert", starts, lens, pool, cores,
                             level_edges, 2)
        assert outcome(rows) == per_level(be, "insert", starts, lens, pool,
                                          cores, level_edges)


def timed(be, *args):
    """Seconds a two-worker delete round takes."""
    start = time.perf_counter()
    be.run_levels("delete", *args, 2)
    return time.perf_counter() - start


@needs_c
@pytest.mark.parametrize("error, raised", [
    (RuntimeError, LevelTaskError), (KeyboardInterrupt, KeyboardInterrupt)])
def test_failure_waits_for_the_whole_round(error, raised):
    be = get_backend("c")
    starts, lens, pool, cores, level_edges = circulant_round()
    expect = outcome(be.run_levels("delete", starts, lens, pool, cores,
                                   level_edges, 2))
    if error is RuntimeError:
        # a level with an endpoint out of range fails at once, claimed
        # first (it has the most edges), while the big levels still run;
        # the error must not surface before they are done
        bad = dict(level_edges)
        bad[1] = (np.array([0, 1], dtype=np.int32),
                  np.array([2, len(starts)], dtype=np.int32))
        clean = min(timed(be, starts, lens, pool, cores, level_edges)
                    for _ in range(3))
        start = time.perf_counter()
        with pytest.raises(raised) as err:
            be.run_levels("delete", starts, lens, pool, cores, bad, 2)
        assert err.value.level == 1
        assert time.perf_counter() - start > clean / 2
    else:
        # an interrupt during the foreign call surfaces once it returns
        calls = []
        interrupter = threading.Timer(0.02, _thread.interrupt_main)
        deadline = time.perf_counter() + 60
        with pytest.raises(raised):
            interrupter.start()
            while time.perf_counter() < deadline:
                calls.append(be.run_levels("delete", starts, lens, pool,
                                           cores, level_edges, 2))
        interrupter.join(timeout=10)
        assert all(outcome(rows) == expect for rows in calls)
    again = be.run_levels("delete", starts, lens, pool, cores, level_edges, 2)
    assert outcome(again) == expect


@needs_c
def test_each_level_runs_once_when_the_caller_takes_levels_back():
    # eight tiny levels on eight workers, many times over: the calling
    # thread and the helpers claim from one cursor; none may run twice or
    # be lost
    be = get_backend("c")
    args = clique_round()
    expect = per_level(be, "delete", *args)
    slots = set()
    for _ in range(300):
        rows = be.run_levels("delete", *args, 8)
        assert [r[0] for r in rows] == list(range(1, 9))
        assert outcome(rows) == expect
        slots |= {r[5] for r in rows}
    assert 0 in slots and slots <= set(range(8))


@needs_c
def test_pool_threads_are_reused_across_rounds():
    # helpers start on first need and serve every later round: 200
    # multi-level rounds start at most workers - 1 threads in total
    be = get_backend("c")
    args = clique_round()
    workers = 3
    before = thread_count()
    be.run_levels("delete", *args, workers)
    after_first = thread_count()
    for _ in range(199):
        be.run_levels("delete", *args, workers)
    assert thread_count() == after_first
    assert after_first - before <= workers - 1


@needs_c
def test_a_round_is_one_foreign_call(monkeypatch):
    be = get_backend("c")
    starts, lens, pool, cores, level_edges = random_round(3, "insert")
    calls = []

    class Counting:
        def __init__(self, lib):
            self._lib = lib

        def __getattr__(self, name):
            fn = getattr(self._lib, name)

            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

    monkeypatch.setattr(be, "_lib", Counting(be._lib))
    results = run_level_tasks(be, "insert", starts, lens, pool, cores,
                              level_edges, 2)
    assert calls == ["cm_run_levels"]
    assert [r.level for r in results] == sorted(level_edges)


@needs_c
def test_compiled_round_releases_the_gil():
    # while one thread is inside a long multi-level round, the calling
    # thread keeps running Python; a call that held the GIL would stall it
    # for the whole round
    be = get_backend("c")
    args = circulant_round()
    span, ticks = [], []

    def work():
        start = time.perf_counter()
        rows = be.run_levels("delete", *args, 2)
        span.extend((start, time.perf_counter(), len(rows)))

    worker = threading.Thread(target=work)
    worker.start()
    deadline = time.perf_counter() + 60
    while worker.is_alive() and time.perf_counter() < deadline:
        ticks.append(time.perf_counter())
    worker.join(timeout=60)
    assert not worker.is_alive()
    start, end, levels = span
    assert levels == 2
    inside = [t for t in ticks if start < t < end]
    longest = float(np.diff([start, *inside, end]).max())
    assert longest < (end - start) / 2, (longest, end - start)


@needs_c
def test_concurrent_rounds_match_sequential_runs():
    be = get_backend("c")
    cases = [(seed, mode) for seed in range(4) for mode in ("insert",
                                                             "delete")]
    rounds = [random_round(seed, mode) for seed, mode in cases]

    def run_all(order):
        return [outcome(be.run_levels(cases[i][1], *rounds[i], 2))
                for i in order]

    expect = run_all(range(len(cases)))
    got, errors = [None, None], []
    start = threading.Barrier(2)

    def run(slot):
        try:
            start.wait(timeout=30)
            out = []
            for _ in range(25):
                out.append(run_all(range(len(cases))))
            got[slot] = out
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
    assert got == [[expect] * 25] * 2


def _round_in_child(args, expect, done):
    before = thread_count()
    rows = get_backend("c").run_levels("delete", *args, 2)
    done.put((outcome(rows) == expect, thread_count() - before))


@needs_c
def test_fork_child_completes_a_round():
    # the child inherits none of the parent's helper threads: it must
    # neither wait on them nor count them, and starts one of its own
    be = get_backend("c")
    args = random_round(4, "delete", n=3000, size=400)
    expect = outcome(be.run_levels("delete", *args, 2))  # helpers started
    ctx = multiprocessing.get_context("fork")
    done = ctx.Queue()
    child = ctx.Process(target=_round_in_child, args=(args, expect, done))
    child.start()
    try:
        assert done.get(timeout=60) == (True, 1)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


# ----------------------------------------------------------------------
# the engine's per-level records and round rollback


@pytest.mark.parametrize("lane", LANES)
def test_round_records_keep_each_level_task(lane):
    g = generate_er(600, 5, seed=7)
    cores = peel(g)
    batch = build_insert_batch(g, sample_new_edges(g, 120, seed=7))
    log = insert_edges(g, cores, batch, workers=2, backend=lane)
    assert cores == peel(g)
    assert any(len(rec.levels) > 1 for rec in log.rounds)
    for rec in log.rounds:
        assert tuple(t.level for t in rec.tasks) == rec.levels
        assert sum((t.counters for t in rec.tasks[1:]),
                   rec.tasks[0].counters) == rec.counters
        assert sorted(v for t in rec.tasks
                      for v in t.vertices.tolist()) == list(rec.changed)
        assert all(t.wall_ns > 0 and t.cpu_ns >= 0 and 0 <= t.worker < 2
                   for t in rec.tasks)
        assert max(t.wall_ns for t in rec.tasks) <= rec.fanout_ns


def bad_backend(error):
    """The default backend, but its level-2 tasks raise ``error``: its
    ``run_levels`` runs the round's other levels, then fails level 2 as
    the contract says (``LevelTaskError`` for an error, an interrupt as
    it is)."""
    real = get_backend()

    def failing(mode, starts, lens, pool, cores, level_edges, workers):
        rows = real.run_levels(mode, starts, lens, pool, cores,
                               {k: e for k, e in level_edges.items()
                                if k != 2}, workers)
        if 2 in level_edges:
            exc = error("injected")
            if isinstance(exc, Exception):
                raise LevelTaskError(2, exc) from exc
            raise exc
        return rows

    class BadBackend:
        NAME = "bad"
        plan_scan = staticmethod(real.plan_scan)
        remove_edges = staticmethod(real.remove_edges)
        has_edges = staticmethod(real.has_edges)
        run_levels = staticmethod(failing)

    return BadBackend()


def two_level_case(mode):
    """Paths 0-1-5 and 6-7 (level 1) and triangles 2-3-4 and 8-9-10
    (level 2), with a batch of two level-1 edges and one level-2 edge; an
    insert batch also holds the present edge 9-10, last in canonical
    order."""
    g = Graph.from_edges([(0, 1), (1, 5), (6, 7), (2, 3), (3, 4), (2, 4),
                          (8, 9), (9, 10), (8, 10)], dense_labels=True)
    if mode == "insert":
        return g, build_insert_batch(g, [(0, 6), (5, 7), (2, 8), (9, 10)])
    return g, build_delete_batch(g, [(0, 1), (6, 7), (2, 3)])


@pytest.mark.parametrize("workers, error, raised, mode", [
    pytest.param(1, RuntimeError, LevelTaskError, "insert", id="1"),
    pytest.param(3, RuntimeError, LevelTaskError, "insert", id="3"),
    pytest.param(1, KeyboardInterrupt, KeyboardInterrupt, "insert",
                 id="1-interrupt"),
    pytest.param(3, KeyboardInterrupt, KeyboardInterrupt, "insert",
                 id="3-interrupt"),
    pytest.param(1, RuntimeError, LevelTaskError, "delete", id="1-delete"),
    pytest.param(3, RuntimeError, LevelTaskError, "delete", id="3-delete"),
    pytest.param(1, KeyboardInterrupt, KeyboardInterrupt, "delete",
                 id="1-interrupt-delete"),
    pytest.param(3, KeyboardInterrupt, KeyboardInterrupt, "delete",
                 id="3-interrupt-delete"),
])
def test_engine_round_rolls_back_on_task_failure(workers, error, raised,
                                                 mode):
    # levels 1 and 2 are both in the first round; only the level-2 task
    # fails, after the level-1 task has finished, and the round is rolled
    # back
    g, batch = two_level_case(mode)
    cores = peel(g)
    before_cores = cores.values.copy()
    before_edges = sorted(g.edges())
    before_alive = batch.alive.copy()
    run = insert_edges if mode == "insert" else delete_edges
    with pytest.raises(raised):
        run(g, cores, batch, workers=workers, backend=bad_backend(error))
    assert sorted(g.edges()) == before_edges
    g.check_invariants()
    assert cores.values.tolist() == before_cores.tolist()
    assert batch.alive.tolist() == before_alive.tolist()


@pytest.mark.parametrize("workers", [0, -5])
@pytest.mark.parametrize("new_pair", [True, False])
def test_engine_rejects_a_bad_worker_count_first(workers, new_pair):
    g = Graph.from_edges([(0, 1), (1, 2)], dense_labels=True)
    cores = peel(g)
    batch = build_insert_batch(g, [(0, 1), (0, 2)] if new_pair else [(0, 1)])
    with pytest.raises(ValueError, match="workers must be >= 1"):
        insert_edges(g, cores, batch, workers=workers)
    assert batch.alive.all()
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert cores == peel(g)


@pytest.mark.parametrize("mode", ["insert", "delete"])
@pytest.mark.parametrize("error, raised", [
    pytest.param(RuntimeError, LevelTaskError, id="error"),
    pytest.param(KeyboardInterrupt, KeyboardInterrupt, id="interrupt"),
])
def test_interrupted_baseline_keeps_the_failing_edge_pending(error, raised,
                                                              mode):
    # canonical order runs a level-1 edge, then the level-2 edge, which
    # fails, then the other level-1 edge
    g, batch = two_level_case(mode)
    cores = peel(g)
    done, failing, later = batch.pairs.tolist()[:3]
    with pytest.raises(raised):
        sequential_baseline(g, cores, batch, mode, backend=bad_backend(error))
    assert batch.alive.tolist() == [False] + [True] * (batch.size - 1)
    assert g.has_edge(*done) == (mode == "insert")
    for u, v in (failing, later):
        assert g.has_edge(u, v) == (mode == "delete")
    g.check_invariants()
    assert cores == peel(g)
