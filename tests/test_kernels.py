"""Cascade-level tests against the pure-Python kernels, parity checks
ensuring the compiled backend reproduces results and counters exactly, and
the compiled lane's input checks and build fallback."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coremaint
from coremaint import Graph, build_delete_batch, build_insert_batch, peel
from coremaint import delete_edges, insert_edges
from coremaint._kernels_py import (TaskState, _Adj, drop_cascade,
                                   rule_out_cascade)
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
    # two unrelated calls through one scratch arena must not interfere
    be = get_backend("c")
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5),
                          (3, 5)], dense_labels=True)
    cores = peel(g)
    g.remove_edge(2, 3)  # kernels run on the already-mutated arrays
    scratch = be.make_scratch(g.vertex_count)
    starts, lens, pool = g.adjacency_arrays()
    eu = np.array([2], dtype=np.int32)
    ev = np.array([3], dtype=np.int32)
    first = be.delete_level(starts, lens, pool, cores.values, 2, eu, ev,
                            scratch)
    second = be.delete_level(starts, lens, pool, cores.values, 2, eu, ev,
                             scratch)
    assert first[0].tolist() == second[0].tolist()
    assert first[1] == second[1]


# ----------------------------------------------------------------------
# compiled lane: inputs are checked before they reach C


def level_call_args():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], dense_labels=True)
    cores = peel(g)
    g.remove_edge(2, 3)
    starts, lens, pool = g.adjacency_arrays()
    return dict(starts=starts, lens=lens, pool=pool, cores=cores.values,
                k=1, eu=np.array([2], dtype=np.int32),
                ev=np.array([3], dtype=np.int32),
                scratch=get_backend("c").make_scratch(g.vertex_count))


@needs_c
@pytest.mark.parametrize("field, bad, error", [
    ("cores", lambda a: a.astype(np.int64), TypeError),
    ("pool", lambda a: np.repeat(a, 2)[::2], TypeError),
    ("ev", lambda a: np.array([4], dtype=np.int32), ValueError),
    ("eu", lambda a: np.array([-1], dtype=np.int32), ValueError),
    ("lens", lambda a: a[:-1], ValueError),
])
def test_compiled_lane_rejects_bad_inputs(field, bad, error):
    be = get_backend("c")
    args = level_call_args()
    moved, counters = be.delete_level(**args)
    args[field] = bad(args[field])
    for kernel in (be.insert_level, be.delete_level):
        with pytest.raises(error):
            kernel(**args)
    # the rejected calls left the shared arena as they found it
    args = dict(level_call_args(), scratch=args["scratch"])
    again = be.delete_level(**args)
    assert (again[0].tolist(), again[1]) == (moved.tolist(), counters)


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

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "coremaint", *args, "--gen", "er",
             "--n", "40", "--deg", "3", "--batch-size", "5"],
            env=env, cwd=tmp_path, capture_output=True, text=True)

    assert f"backend=python ({reason})" in cli("insert").stdout
    both = cli("bench", "--backend", "both")
    assert both.returncode == 1
    assert reason in both.stderr
