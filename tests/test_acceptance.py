"""Acceptance suite.

Each test prints one summarized pass line (run with ``pytest -v -s``); a
failure of any assertion is the corresponding criterion going red.

A1  insertion equals full recomputation on 200 seeded random trials
A2  deletion equals full recomputation on 200 seeded random trials
A3  exhaustive small graphs: peeling vs naive reference, single-edge engines
A4  per-round audit (change at most 1, only at round levels) over A1/A2
A5  round counts stay within the selection bound; large-batch analogue
A6  worker counts 1/2/8 and repeated runs give identical cores and logs
A7  preferential-attachment graphs peel to a uniform core number
A8  edge-by-edge baseline agrees everywhere and visits strictly more
A9  at scale, the batch engine beats the baseline by 2x or better

Environment knobs: COREMAINT_FULL_BASELINE=1 runs A9's baseline on the
whole batch instead of a seeded sample (slow: hours at ~0.5 s/edge).
"""

import itertools
import os
import time

import numpy as np
import pytest

from coremaint import (Graph, build_delete_batch, build_insert_batch,
                       delete_edges, insert_edges, peel, sequential_baseline)
from coremaint.gen import generate_ba, generate_er, sample_existing_edges, \
    sample_new_edges
from coremaint.kernels import available_backends, default_backend_name
from support_oracle import naive_core_numbers

TRIALS = 200
GRAPH_N = 1000
GRAPH_DEG = 8


def trial_workload(i: int, mode: str):
    """Deterministic trial i: a fresh random graph and a 1..200 edge batch."""
    g = generate_er(GRAPH_N, GRAPH_DEG, seed=10_000 + i)
    rng = np.random.default_rng(20_000 + i)
    size = int(rng.integers(1, 201))
    if mode == "insert":
        edges = sample_new_edges(g, size, seed=30_000 + i)
    else:
        edges = sample_existing_edges(g, size, seed=30_000 + i)
    return g, edges


def run_trial(g, edges, mode, workers=1, audit=False):
    cores = peel(g)
    if mode == "insert":
        batch = build_insert_batch(g, edges)
        log = insert_edges(g, cores, batch, workers=workers, audit=audit)
    else:
        batch = build_delete_batch(g, edges)
        log = delete_edges(g, cores, batch, workers=workers, audit=audit)
    return cores, batch, log


def test_a1_insertion_matches_recomputation():
    start = time.perf_counter()
    mismatches = 0
    for i in range(TRIALS):
        g, edges = trial_workload(i, "insert")
        cores, _, log = run_trial(g, edges, "insert", audit=True)
        if cores != peel(g):
            mismatches += 1
        assert log.audit_violations == []
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    print(f"\n[PASS] A1 insertion: {TRIALS} trials, 0 mismatches, "
          f"{elapsed:.1f}s ({default_backend_name()} backend)")


def test_a2_deletion_matches_recomputation():
    start = time.perf_counter()
    mismatches = 0
    for i in range(TRIALS):
        g, edges = trial_workload(i, "delete")
        cores, _, log = run_trial(g, edges, "delete", audit=True)
        if cores != peel(g):
            mismatches += 1
        assert log.audit_violations == []
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    print(f"\n[PASS] A2 deletion: {TRIALS} trials, 0 mismatches, "
          f"{elapsed:.1f}s")


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1], pairs


def test_a3_exhaustive_small_graphs():
    start = time.perf_counter()
    graphs = toggles = 0
    for n in range(7):
        for edges, pairs in _all_graphs(n):
            g = Graph.from_edges(np.asarray(edges, np.int64).reshape(-1, 2),
                                 num_vertices=n, dense_labels=True)
            base = peel(g)
            assert base == naive_core_numbers(g), (n, edges)
            graphs += 1
            for u, v in pairs:
                g2 = g.copy()
                c2 = base.copy()
                if g2.has_edge(u, v):
                    delete_edges(g2, c2, build_delete_batch(g2, [(u, v)]))
                else:
                    insert_edges(g2, c2, build_insert_batch(g2, [(u, v)]))
                assert c2 == peel(g2), (n, edges, u, v)
                toggles += 1
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] A3 exhaustive: {graphs} graphs, {toggles} single-edge "
          f"engine checks, {elapsed:.1f}s")


def test_a4_per_round_audit_summary():
    # the audit assertions already ran inside A1/A2; re-run a slice here so
    # this criterion stands alone as well
    violations = 0
    for i in range(0, TRIALS, 10):
        for mode in ("insert", "delete"):
            g, edges = trial_workload(i, mode)
            _, _, log = run_trial(g, edges, mode, audit=True)
            violations += len(log.audit_violations)
    assert violations == 0
    print(f"\n[PASS] A4 audit: 0 per-round violations "
          f"(change <= 1, only at round levels, monotone)")


def test_a5_round_counts_within_selection_bound():
    # Rounds are bounded by 2*multiplicity - 1 for the greedy selection:
    # a pending edge waits only while another edge covers one of its
    # same-level endpoints, which can happen at most multiplicity-1 times
    # per endpoint.  Plain multiplicity is NOT an exact round count: edges
    # of one vertex can ride distinct levels in a single round (fewer
    # rounds), and same-level conflict cycles can add rounds.
    worst = 0
    eq = 0
    for i in range(TRIALS):
        g, edges = trial_workload(i, "insert")
        _, batch, log = run_trial(g, edges, "insert")
        mult = max(1, batch.max_multiplicity)
        assert log.rounds_executed <= 2 * mult - 1, (i, log.rounds_executed,
                                                     mult)
        worst = max(worst, log.rounds_executed - mult)
        eq += log.rounds_executed == mult
    print(f"\n[PASS] A5 rounds: all within the selection bound; "
          f"rounds == multiplicity in {eq}/{TRIALS} trials, "
          f"worst overshoot {worst}")

    # large-batch analogue: 20k random insertions into a 100k-vertex graph
    g = generate_er(100_000, 8, seed=4242)
    edges = sample_new_edges(g, 20_000, seed=4243)
    cores = peel(g)
    batch = build_insert_batch(g, edges)
    log = insert_edges(g, cores, batch, workers=2)
    assert log.rounds_executed <= 5, log.rounds_executed
    assert cores == peel(g)
    print(f"[PASS] A5 analogue: 20000 insertions into er(100000, 8) took "
          f"{log.rounds_executed} rounds (multiplicity "
          f"{batch.max_multiplicity})")


def _log_signature(log):
    return [(r.index, r.levels, sorted(r.edges_at_level.items()), r.changed,
             r.counters) for r in log.rounds]


def test_a6_worker_count_and_rerun_determinism():
    diffs = 0
    for i in range(TRIALS):
        outcomes = []
        for workers in (1, 1, 2, 8):  # the doubled 1 checks rerun stability
            g, edges = trial_workload(i, "insert")
            cores, _, log = run_trial(g, edges, "insert", workers=workers)
            outcomes.append((cores.values.tolist(), _log_signature(log)))
        if any(o != outcomes[0] for o in outcomes[1:]):
            diffs += 1
    assert diffs == 0
    print(f"\n[PASS] A6 determinism: {TRIALS} workloads identical across "
          f"worker counts 1/2/8 and repeated runs")


def test_a7_preferential_attachment_core_structure():
    g = generate_ba(1000, 8, seed=7)
    cores = peel(g)
    assert (cores.values == 8).all()
    print("\n[PASS] A7 attachment graph: every vertex peels to core 8")


def _ladder(m):
    """Open 2-by-m grid: a long band of 4-cycles, every core exactly 2."""
    edges = []
    for i in range(m):
        edges.append((2 * i, 2 * i + 1))  # rung
        if i + 1 < m:
            edges.append((2 * i, 2 * i + 2))
            edges.append((2 * i + 1, 2 * i + 3))
    return Graph.from_edges(edges, num_vertices=2 * m, dense_labels=True)


def test_a8_baseline_agreement_and_visit_saving():
    # agreement on the A1/A2 workloads
    for i in range(TRIALS):
        for mode in ("insert", "delete"):
            g, edges = trial_workload(i, mode)
            cores, _, _ = run_trial(g, edges, mode)
            g2, _ = trial_workload(i, mode)
            cores2 = peel(g2)
            if mode == "insert":
                batch = build_insert_batch(g2, edges)
            else:
                batch = build_delete_batch(g2, edges)
            blog = sequential_baseline(g2, cores2, batch, mode)
            assert cores2 == cores, (i, mode)

    # two same-level insertions whose traversal regions overlap: processed
    # together they visit the shared region once, one by one they revisit it
    m = 40
    g_engine = _ladder(m)
    cores_engine = peel(g_engine)
    assert (cores_engine.values == 2).all()
    chords = [(2 * (m // 3), 2 * (m // 3) + 3),
              (2 * (2 * m // 3), 2 * (2 * m // 3) + 3)]
    batch = build_insert_batch(g_engine, chords)
    elog = insert_edges(g_engine, cores_engine, batch)

    g_base = _ladder(m)
    cores_base = peel(g_base)
    blog = sequential_baseline(g_base, cores_base,
                               build_insert_batch(g_base, chords), "insert")
    assert cores_base == cores_engine
    assert elog.counters.visited < blog.counters.visited
    print(f"\n[PASS] A8 baseline: agreement on {2 * TRIALS} workloads; "
          f"overlap instance visits {elog.counters.visited} (batched) vs "
          f"{blog.counters.visited} (edge by edge)")


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("case, counters, checksum", [
    ("er-insert", (7521, 7513, 64843, 8, 7521), 218366),
    ("ba-delete", (113, 18, 34, 18, 0), 131412),
])
def test_baseline_work_is_pinned(case, counters, checksum, backend):
    # literal counters and cores: A8 and A9 compare against this work, so
    # any change to what the baseline computes must show up here
    if case == "er-insert":
        g = generate_er(300, 4, seed=11)
        batch = build_insert_batch(g, sample_new_edges(g, 40, seed=12))
    else:
        g = generate_ba(300, 3, seed=13)
        batch = build_delete_batch(g, sample_existing_edges(g, 40, seed=14))
    cores = peel(g)
    log = sequential_baseline(g, cores, batch, case.split("-")[1],
                              backend=backend)
    c = log.counters
    assert (c.visited, c.removed, c.neg_touches, c.sup_evals,
            c.csup_evals) == counters
    assert (log.edges_applied, log.dropped_existing) == (40, 0)
    assert int(cores.values.astype(np.int64)
               @ np.arange(1, g.vertex_count + 1)) == checksum
    assert cores == peel(g)


@pytest.mark.skipif(default_backend_name() != "c",
                    reason="scale run needs the compiled kernels")
def test_a9_scale_speedup_over_baseline():
    n, batch_size = 1 << 20, 10_000
    g0 = generate_er(n, 8, seed=99)
    cores0 = peel(g0)
    edges = sample_new_edges(g0, batch_size, seed=98)

    g = g0.copy()
    cores = cores0.copy()
    batch = build_insert_batch(g, edges)
    start = time.perf_counter()
    log = insert_edges(g, cores, batch, workers=8)
    engine_s = time.perf_counter() - start
    engine_per_edge = engine_s / batch_size * 1000
    assert cores == peel(g)

    full = os.environ.get("COREMAINT_FULL_BASELINE") == "1"
    sample = batch_size if full else 150
    gb = g0.copy()
    coresb = cores0.copy()
    bbatch = build_insert_batch(gb, edges[:sample])
    start = time.perf_counter()
    sequential_baseline(gb, coresb, bbatch, "insert")
    base_s = time.perf_counter() - start
    base_per_edge = base_s / sample * 1000

    speedup = base_per_edge / engine_per_edge
    assert speedup >= 2.0, (base_per_edge, engine_per_edge)
    print(f"\n[PASS] A9 scale: er(2^20, 8) + {batch_size} insertions; "
          f"engine {engine_per_edge:.4f} ms/edge ({log.rounds_executed} "
          f"rounds, 8 workers), baseline {base_per_edge:.1f} ms/edge "
          f"({'full batch' if full else f'{sample}-edge sample'}), "
          f"speedup {speedup:.0f}x")
