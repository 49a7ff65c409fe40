"""A free level's insert task that gives up its traversal for a peel of
its whole level from the maintained support (``level_peel`` in both
lanes): the lanes agree on it pop for pop, it finds the traversal's
risers, a round whose peel leaves riser survivors replays, and a switched
task leaves its arena clean.  Strict tasks and the baseline keep the
traversal."""

import threading

import numpy as np
import pytest

from coremaint import (Graph, build_insert_batch, get_backend, insert_edges,
                       peel, sequential_baseline)
from coremaint._kernels_py import (COUNTERS, CPU, LEVEL, SURVIVORS, WALL,
                                   WORKER)
from coremaint.gen import generate_ba, generate_er, sample_new_edges
from coremaint.kernels import BACKENDS, FALLBACK_REASON
from support_oracle import networkx_core_numbers

needs_c = pytest.mark.skipif("c" not in BACKENDS, reason=FALLBACK_REASON)
LANES = [pytest.param("python", id="python"),
         pytest.param("c", id="c", marks=needs_c)]
VISITED, CSUP = COUNTERS.start, COUNTERS.stop - 1


def switched(row, cores) -> bool:
    """Did the task of this ``run_levels`` row peel its level?  A
    traversal evaluates one constrained support per visit; a switched task
    adds the |V_k| visits of its peel, and evaluates none there."""
    extra = row[VISITED] - row[CSUP]
    assert extra in (0, np.count_nonzero(cores == row[LEVEL])), row
    return extra > 0


def er_case():
    """ER(2^13, 8) and four 500-edge insert batches."""
    g = generate_er(1 << 13, 8, seed=3)
    return g, [sample_new_edges(g, 500, seed=10 + b) for b in range(4)]


def ba_case():
    """BA(2^12, 4), one core level, and six insert batches of up to eight
    edges, each a vertex joined to others: the strict scan takes one pair,
    so each batch is one free round of the level."""
    g = generate_ba(1 << 12, 4, seed=3)
    rng = np.random.default_rng(3)
    return g, [[(int(hub), int(w)) for w in
                rng.choice(g.vertex_count, 8, replace=False) if w != hub]
               for hub in rng.choice(g.vertex_count, 6, replace=False)]


def timeless(rows):
    """A round's rows without their wall, CPU and worker columns."""
    return np.delete(rows, [WALL, CPU, WORKER], axis=1)


@needs_c
@pytest.mark.parametrize("case", [er_case, ba_case], ids=["er", "ba"])
def test_switched_free_levels_agree_across_lanes_and_workers(case):
    g0, batches = case()
    seen, switches = [], 0
    for lane, workers in (("python", 1), ("c", 1), ("c", 2), ("c", 8)):
        g, cores = g0.copy(), peel(g0)
        rounds = []
        for edges in batches:
            before = cores.values.copy()
            log = insert_edges(g, cores, build_insert_batch(g, edges),
                               workers=workers, backend=lane)
            for r in log.rounds:
                rounds.append((r.levels, r.free_level, r.moved.tobytes(),
                               timeless(r.rows).tobytes()))
                if r.free_level is not None:
                    row = r.rows[r.levels.index(r.free_level)]
                    switches += switched(row, before)
                before[r.moved] += 1
            rounds.append(log.replayed_rounds)
        assert cores == peel(g) and cores == networkx_core_numbers(g)
        seen.append((rounds, cores.values.tobytes()))
    assert all(s == seen[0] for s in seen[1:])
    assert switches >= 4 * len(batches) // 2  # most free levels peel


def cycle_with_k5():
    """A 20-cycle (core 2 throughout) and the ten pairs of a K5 on five of
    its vertices, none adjacent on the cycle, already in the graph; with
    the cores and support from before they went in."""
    g = Graph.from_edges([(i, (i + 1) % 20) for i in range(20)],
                         dense_labels=True)
    before = peel(g)
    hubs = [0, 4, 8, 12, 16]
    pairs = np.array([(a, b) for i, a in enumerate(hubs)
                      for b in hubs[i + 1:]], dtype=np.int32)
    g._add_dense(pairs[:, 0], pairs[:, 1])
    return g, before, pairs


def k5_round(lane, free, workers=1):
    """The K5's pairs as one level-2 round, ``free`` as given."""
    g, before, pairs = cycle_with_k5()
    support = before.support.copy()
    moved, rows = get_backend(lane).run_levels(
        "insert", *g.adjacency_arrays(), before.values, support,
        np.array([2], np.int64), np.array([0, len(pairs)], np.int64),
        pairs[:, 0].copy(), pairs[:, 1].copy(), workers, free)
    assert np.array_equal(support, before.support)  # survivors: put back
    return moved.tolist(), timeless(rows)[0].tolist()


@pytest.mark.parametrize("lane", LANES)
def test_a_level_peel_with_riser_survivors_replays_the_round(lane):
    # the level-2 peel starts from the maintained support: the fifteen
    # cycle vertices (support 2) go first, each taking one from its K5
    # neighbours (ten decrements), and the K5 survives at 4; its riser
    # peel at threshold 4 keeps all five, so the round replays
    moved, row = k5_round(lane, free=2)
    assert moved == [0, 4, 8, 12, 16]
    visited, removed, neg_touches, sup_evals, csup_evals = row[3:8]
    assert (visited, removed, neg_touches, sup_evals, csup_evals) == (
        1 + 20, 15, 10, 0, 1)
    assert row[-1] == 5  # survivors
    traversed, row = k5_round(lane, free=-1)  # the same risers
    assert traversed == moved and row[3] == row[7] and row[-1] == 5
    g, before, pairs = cycle_with_k5()
    g._remove_dense(pairs[:, 0], pairs[:, 1])
    log = insert_edges(g, before, build_insert_batch(g, pairs.tolist()),
                       backend=lane, audit=True)
    assert log.replayed_rounds == 1 and log.audit_violations == []
    assert before == peel(g) and before == networkx_core_numbers(g)
    assert before.values[[0, 4, 8, 12, 16]].tolist() == [4] * 5


def in_a_fresh_thread(fn):
    """``fn()`` run on a new thread, so with a fresh compiled arena."""
    got = []
    worker = threading.Thread(target=lambda: got.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert got, "the thread failed"
    return got[0]


def cycle_delete(lane):
    """Cycle edge 1-2 out of the cycle with its K5 in: 1, 2 and 3, whose
    level peel removed them, are visited and fall."""
    g, _, _ = cycle_with_k5()
    cores = peel(g)
    g._remove_dense(np.array([1]), np.array([2]))
    moved, counters = get_backend(lane).delete_level(
        *g.adjacency_arrays(), cores.values, cores.support.copy(), 2,
        np.array([1], np.int32), np.array([2], np.int32))
    return moved.tolist(), counters


@needs_c
def test_a_switched_task_leaves_its_arena_clean():
    # right after the K5 round's free task peeled the level on the same
    # thread, the strict K5 round (over the survivors) and a delete task
    # (over peeled vertices) give what they give on a fresh thread's arena
    def strict_tasks():
        return k5_round("c", free=-1), cycle_delete("c")

    def after_a_switch():
        assert k5_round("c", free=2)[1][3] == 21  # peeled the level
        return strict_tasks()

    fresh = in_a_fresh_thread(strict_tasks)
    assert in_a_fresh_thread(after_a_switch) == fresh
    assert fresh == (k5_round("python", free=-1), cycle_delete("python"))
    assert fresh[1][0] == [1, 2, 3]


@pytest.mark.parametrize("lane", LANES)
def test_a_strict_whole_level_task_keeps_its_traversal(lane):
    # the region of test_a_task_that_rules_out_a_whole_level_fits_a_fresh_
    # arena, smaller: a strict task traverses and rules out all n - 1 path
    # vertices, as the same round does when its level is free up to the
    # switch, which then peels the level
    m = 1 << 9
    n = 2 * m + 1
    path = np.stack([np.arange(n - 1), np.arange(1, n)], 1)
    k5 = n + np.array([(i, j) for i in range(5) for j in range(i + 1, 5)])
    g = Graph.from_edges(np.concatenate([path, k5, [[0, n], [n - 1, n + 1]]]),
                         dense_labels=True)
    before = peel(g)
    i = np.arange(2, m + 1)
    chords = np.concatenate([np.stack([i + m, i], 1), [[1 + m, 1]]])
    g._add_dense(chords[:, 0], chords[:, 1])
    be = get_backend(lane)

    def level_2(free):
        moved, rows = be.run_levels(
            "insert", *g.adjacency_arrays(), before.values,
            before.support.copy(), np.array([2], np.int64),
            np.array([0, len(chords)], np.int64),
            chords[:, 0].astype(np.int32), chords[:, 1].astype(np.int32), 1,
            free)
        return moved.tolist(), rows[0]

    moved, row = level_2(-1)
    assert moved == [] and not switched(row, before.values)
    assert (row[VISITED], row[VISITED + 1]) == (n - 1, n - 1)
    moved, row = level_2(2)
    assert moved == [] and switched(row, before.values)
    assert row[VISITED] - row[CSUP] == n and row[SURVIVORS] == 0


@needs_c
def test_the_baseline_never_switches():
    # on the batches whose free rounds peel their level, every one-edge
    # round of the baseline traverses
    g0, batches = ba_case()
    g, cores = g0.copy(), peel(g0)
    for edges in batches[:3]:
        before = cores.values.copy()
        log = sequential_baseline(g, cores, build_insert_batch(g, edges),
                                  "insert", backend="c")
        for r in log.rounds:
            assert not switched(r.rows[0], before)
            before[r.moved] += 1
    assert cores == peel(g)
