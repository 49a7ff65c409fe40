import numpy as np
import pytest

from coremaint import (Graph, LevelTaskError, LevelTaskResult, TaskCounters,
                       build_insert_batch, insert_edges, peel,
                       run_level_tasks)


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


@pytest.mark.parametrize("workers, error, raised", [
    pytest.param(1, RuntimeError, LevelTaskError, id="1"),
    pytest.param(3, RuntimeError, LevelTaskError, id="3"),
    pytest.param(1, KeyboardInterrupt, KeyboardInterrupt, id="1-interrupt"),
    pytest.param(3, KeyboardInterrupt, KeyboardInterrupt, id="3-interrupt"),
])
def test_engine_round_rolls_back_on_task_failure(workers, error, raised):
    g = Graph.from_edges([(0, 1), (2, 3), (3, 4), (2, 4)], dense_labels=True)
    cores = peel(g)
    before_cores = cores.values.copy()
    before_edges = sorted(g.edges())
    batch = build_insert_batch(g, [(0, 2), (1, 4)])
    remaining = batch.remaining

    def exploding_kernel(*args, **kwargs):
        raise error("injected")

    class BadBackend:
        NAME = "bad"
        make_scratch = staticmethod(lambda n: None)
        insert_level = staticmethod(exploding_kernel)
        delete_level = staticmethod(exploding_kernel)

    with pytest.raises(raised):
        insert_edges(g, cores, batch, workers=workers, backend=BadBackend())
    assert sorted(g.edges()) == before_edges
    assert cores.values.tolist() == before_cores.tolist()
    assert batch.remaining == remaining
