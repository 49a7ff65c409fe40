"""The scripts under ``benchmarks/`` run against the current program."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from coremaint.kernels import available_backends

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import paper_comparison as pc  # noqa: E402

COUNTERS = {"visited", "removed", "neg_touches", "sup_evals", "csup_evals"}


def tiny(mode):
    return pc.Case("er", 200, 4, mode, batch=20, sample=5)


@pytest.mark.parametrize("mode", ["insert", "delete"])
def test_paper_comparison_rows(mode):
    doc = json.loads(json.dumps(pc.report(3, cases=(tiny(mode),))))
    assert {"git_sha", "host", "nproc", "seed", "cases", "workers",
            "results"} <= doc.keys()
    assert doc["cases"] == [tiny(mode)._asdict()]
    rows = doc["results"]
    assert [(r["backend"], r["workers"]) for r in rows] == [
        (b, w) for b in available_backends() for w in pc.WORKERS]
    for r in rows:
        assert r["correct"], r  # every run's cores equal a fresh peel
        assert (r["mode"], r["batch"], r["sample"]) == (mode, 20, 5)
        assert r["speedup"] == (r["baseline_ms_per_edge"]
                                / r["engine_ms_per_edge"])
        assert r["rounds"] >= 1
        assert r["replayed_rounds"] >= 0
        assert r["counters"].keys() == COUNTERS
        assert r["counters"]["visited"] > 0
        assert r["runtime.parallelism"] > 0
        assert 0 < r["runtime.straggler_share"] <= 1


def test_paper_comparison_flags_wrong_cores(monkeypatch):
    real = pc.cm.delete_edges

    def off_by_one(g, cores, batch, **kw):
        log = real(g, cores, batch, **kw)
        cores.values[0] += 1
        return log

    monkeypatch.setattr(pc.cm, "delete_edges", off_by_one)
    rows = pc.run_case(tiny("delete"), "python", 3)
    assert [r["correct"] for r in rows] == [False] * len(pc.WORKERS)


def test_small_batch_phases_runs():
    for workload, kind, args in (
            ("ba-mixed-small", "delete", []),  # the defaults
            ("er-delete-bulk", "delete", ["--workload", "er-delete-bulk"]),
            ("er-insert-bulk", "insert", ["--workload", "er-insert-bulk"])):
        out = subprocess.run(
            [sys.executable, str(BENCHMARKS / "small_batch_phases.py"),
             "--seconds", "0.2", *args],
            capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0].startswith(f"{workload}, backend ")
        assert lines[0].endswith(f" traced {kind} batches")
        phases = [line.split()[0] for line in lines if line.startswith("  ")]
        assert phases == ["build", "plan", "mutate", "kernel", "fan-out",
                          "replayed", "engine"]
        assert lines[-3].startswith("rounds per batch ")
        assert float(lines[-3].split()[3]) >= 1
        assert [line.split()[:3] for line in lines[-2:]] == [
            ["round", "1", "visits"], ["rounds", "2+", "visits"]]


def test_load_phases_runs():
    out = subprocess.run(
        [sys.executable, str(BENCHMARKS / "load_phases.py"),
         "--workload", "ba-mixed-small"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[1].split() == ["backend", "read", "parse", "rank", "pool",
                                "build", "peel", "cores"]
    rows = [line.split() for line in lines[2:-1]]
    assert [r[0] for r in rows] == available_backends()
    assert all(len(r) == 7 and all(float(x) >= 0 for x in r[1:])
               for r in rows)
    assert lines[-1] == "backends load identical graphs"
