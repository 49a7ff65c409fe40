"""Self-tests of the benchmark on small inputs.

    python -m pytest corebench
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "er-insert-bulk": dataclasses.replace(
        WORKLOADS["er-insert-bulk"], n=400, batch=20, window=3),
    "er-delete-bulk": dataclasses.replace(
        WORKLOADS["er-delete-bulk"], n=800, batch=100, window=3),
    "ba-mixed-small": dataclasses.replace(
        WORKLOADS["ba-mixed-small"], n=300, window=2, per_cycle=15),
}


def loaded(spec, seed, tmp_path):
    base = spec.base_keys(seed)
    path = tmp_path / "g.edges"
    run.write_edge_list(path, base, spec.n, "test")
    g0, cores0 = run.load_and_peel(path)
    return base, g0, cores0


def patched_names():
    be = run.cm.get_backend()
    return {
        "plan_round": vars(run.cm.engine)["plan_round"],
        "run_level_tasks": vars(run.cm.engine)["run_level_tasks"],
        "insert_level": vars(be)["insert_level"],
        "delete_level": vars(be)["delete_level"],
        "_add_dense": vars(run.cm.Graph)["_add_dense"],
        "_remove_dense": vars(run.cm.Graph)["_remove_dense"],
        "_has_dense": vars(run.cm.Graph)["_has_dense"],
    }


def test_benchmark_json_names_these_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_counters_are_identical(name, tmp_path):
    spec = SMALL[name]
    base, g0, cores0 = loaded(spec, 3, tmp_path)
    plain = run.drive(spec, g0, cores0, base, 3, 0.0)
    with Tracer() as tracer:
        traced = run.drive(spec, g0, cores0, base, 3, 0.0, tracer)
    again = run.drive(spec, g0, cores0, base, 3, 0.0)
    assert plain.error is None and traced.error is None
    counts = run.window_counters(plain.records, spec.window)
    assert counts["kernels.visited"][0] > 0
    assert run.window_counters(traced.records, spec.window) == counts
    assert run.window_counters(again.records, spec.window) == counts
    assert {s.name for s in tracer.spans} >= {
        "batch.build", "batch.plan", "engine.batch", "graph.mutate",
        "graph.has_edge", "runtime.fanout"}


def test_tracer_restores_every_patched_name():
    before = patched_names()
    with Tracer():
        assert all(patched_names()[k] is not v for k, v in before.items())
    assert patched_names() == before
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert patched_names() == before


@pytest.mark.parametrize("name", sorted(SMALL))
def test_metric_names_match_benchmark_json(name, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, name, SMALL[name])
    before = patched_names()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = last_line_of_main(name, trace)
        assert out["correct"] and out["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        printed = {k: m["unit"] for k, m in out["metrics"].items()}
        assert printed == declared
    assert patched_names() == before


def last_line_of_main(name, trace):
    """Run ``run.main`` in this process and parse its last output line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(["--workload", name, "--seed", "5", "--seconds",
                         "0.2", "--trace", str(trace)]) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def test_output_check_fires_on_one_flipped_core(tmp_path):
    spec = SMALL["ba-mixed-small"]
    base, g0, cores0 = loaded(spec, 7, tmp_path)
    done = run.drive(spec, g0, cores0, base, 7, 0.0)
    g, cores = done.state.g, done.state.cores
    keys = done.stream.expected_keys()
    assert run.check_state(g, cores, keys, spec.n) == []
    cores.values[5] += 1
    problems = run.check_state(g, cores, keys, spec.n)
    assert "cores differ from a fresh peel" in problems
    assert "cores differ from networkx.core_number on the mirror" in problems
    cores.values[5] -= 1
    problems = run.check_state(g, cores, keys[1:], spec.n)
    assert problems[0] == "graph edges differ from the mirror"
    assert "cores differ from a fresh peel" not in problems


def test_a_raising_batch_fails_the_run(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "er-delete-bulk",
                        SMALL["er-delete-bulk"])

    def broken(*args, **kwargs):
        raise RuntimeError("engine failure")

    monkeypatch.setattr(run.cm, "delete_edges", broken)
    out = last_line_of_main("er-delete-bulk", 0)
    assert not out["correct"]
    assert out["attempted"] == out["failed"] == 1


def test_same_seed_same_inputs():
    spec = SMALL["er-insert-bulk"]
    assert (spec.base_keys(1) == spec.base_keys(1)).all()
    assert not (spec.base_keys(1) == spec.base_keys(2)).all()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ba-mixed-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
