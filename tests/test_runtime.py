import threading
import time

import numpy as np
import pytest

from coremaint import (Graph, LevelTaskError, LevelTaskResult, TaskCounters,
                       build_delete_batch, build_insert_batch, delete_edges,
                       get_backend, insert_edges, peel, run_level_tasks,
                       sequential_baseline)


def fake_task(level):
    return LevelTaskResult(level, np.array([level], dtype=np.int32),
                           TaskCounters(visited=level))


def test_single_worker_is_sequential_and_ordered():
    out = run_level_tasks([9, 2, 5], 1, fake_task)
    assert [r.level for r in out] == [2, 5, 9]


def test_many_workers_same_result():
    out1 = run_level_tasks([3, 1, 7], 1, fake_task)
    out8 = run_level_tasks([3, 1, 7], 8, fake_task)
    assert [(r.level, r.vertices.tolist(), r.counters) for r in out1] == \
           [(r.level, r.vertices.tolist(), r.counters) for r in out8]


def test_worker_limit_validation():
    with pytest.raises(ValueError):
        run_level_tasks([1], 0, fake_task)


@pytest.mark.parametrize("workers", [1, 4])
def test_failure_names_the_level(workers):
    def task(level):
        if level == 5:
            raise RuntimeError("boom")
        return fake_task(level)

    with pytest.raises(LevelTaskError) as err:
        run_level_tasks([2, 5, 9], workers, task)
    assert err.value.level == 5


@pytest.mark.parametrize("error, raised", [
    (RuntimeError, LevelTaskError), (KeyboardInterrupt, KeyboardInterrupt)])
def test_failure_waits_for_the_whole_round(error, raised):
    # level 5 fails at once while level 2 is still running; the error must
    # not surface before level 2 is done, or a rollback would run beside it
    finished = []

    def task(level):
        if level == 5:
            raise error("boom")
        time.sleep(0.2)
        finished.append(level)
        return fake_task(level)

    with pytest.raises(raised):
        run_level_tasks([2, 5], 2, task, weights={2: 1})
    assert finished == [2]


def test_pool_threads_are_reused_across_rounds():
    threads = set()

    def task(level):
        threads.add(threading.current_thread())
        return fake_task(level)

    for _ in range(20):
        run_level_tasks([1, 2, 3], 2, task)
    assert len(threads) <= 2


def bad_backend(error):
    """The default backend, but its level-2 tasks raise ``error``."""
    real = get_backend()

    def level_kernel(name):
        def kernel(starts, lens, pool, cores, k, *rest):
            if k == 2:
                raise error("injected")
            return getattr(real, name)(starts, lens, pool, cores, k, *rest)
        return staticmethod(kernel)

    class BadBackend:
        NAME = "bad"
        plan_scan = staticmethod(real.plan_scan)
        remove_edges = staticmethod(real.remove_edges)
        insert_level = level_kernel("insert_level")
        delete_level = level_kernel("delete_level")

    return BadBackend()


def two_level_case(mode):
    """Paths 0-1-5 and 6-7 (level 1) and triangles 2-3-4 and 8-9-10
    (level 2), with a batch of two level-1 edges and one level-2 edge."""
    g = Graph.from_edges([(0, 1), (1, 5), (6, 7), (2, 3), (3, 4), (2, 4),
                          (8, 9), (9, 10), (8, 10)], dense_labels=True)
    if mode == "insert":
        return g, build_insert_batch(g, [(0, 6), (5, 7), (2, 8)])
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
    # fails, so the level-1 task may have finished when the round is
    # rolled back
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
    done, failing, later = batch.pairs.tolist()
    with pytest.raises(raised):
        sequential_baseline(g, cores, batch, mode, backend=bad_backend(error))
    assert batch.alive.tolist() == [False, True, True]
    assert g.has_edge(*done) == (mode == "insert")
    for u, v in (failing, later):
        assert g.has_edge(u, v) == (mode == "delete")
    g.check_invariants()
    assert cores == peel(g)
