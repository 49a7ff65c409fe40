#!/usr/bin/env python3
"""The paper's comparisons: the batch engine against edge-by-edge
maintenance, per kernel backend and worker count.

    python3 benchmarks/paper_comparison.py [--seed 1] [--out FILE]

For every case of ``CASES`` (a generated ER or BA graph, insert or delete,
a batch size), every available kernel backend and every worker count of
``WORKERS``, it runs ``insert_edges``/``delete_edges`` and
``sequential_baseline`` on copies of the same graph and batch.  The
baseline runs a seeded sample of the batch (``Case.sample`` edges), as
acceptance test A9 does.  Both are timed around the maintenance call
alone and reported in milliseconds per edge; ``speedup`` is the baseline's
figure over the engine's.  ``rounds`` counts the engine's committed
rounds and ``replayed_rounds`` its free rounds undone and run again by
the strict rule (whose work is in no counter).  The engine's round
records give ``runtime.parallelism`` (level-task CPU time over fan-out
wall time) and ``runtime.straggler_share`` (the slowest level task's
share of the fan-out), summed over the rounds.  Every run is checked against a fresh
``peel``; a row whose runs did not all match has ``"correct": false`` and
the script exits 1.

A vertex case (``Case.vertices`` > 0) takes as its batch every edge of
the graph's ``vertices`` highest-degree vertices (ties by id): a delete
removes those vertices, and an insert puts them back after an untimed
removal.  Its rows give the batch size it found.  Vertex cases run on the
default backend alone: the Python lane's strict re-insertion rounds of a
BA hub would take minutes.

Writes one JSON document to ``--out`` (default: standard output).  The
program is imported from this checkout's ``src/``, whatever the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "corebench"))

import run  # noqa: E402  (corebench/run.py; imports coremaint from src/)
from coremaint.gen import (generate_graph, sample_existing_edges,  # noqa: E402
                           sample_new_edges)

cm = run.cm


class Case(NamedTuple):
    model: str  # "er" or "ba", as for ``generate_graph``
    n: int
    deg: int  # edges per vertex
    mode: str  # "insert" or "delete"
    batch: int  # edges in the batch (a vertex case finds its own)
    sample: int  # batch edges the baseline runs (at most the batch)
    vertices: int = 0  # > 0: the edges of that many top-degree vertices


# n=2^15 keeps a full run within a few minutes on two cores: the Python
# lane's baseline takes ~0.5 s per ER insert edge there, which is also why
# the baseline runs a sample of the 10,000-edge batches
CASES = tuple(Case(model, n, deg, mode, batch, sample, vertices)
              for model, n, deg in (("er", 1 << 15, 8), ("ba", 1 << 15, 4))
              for mode in ("insert", "delete")
              for batch, sample, vertices in ((100, 100, 0),
                                              (10_000, 100, 0),
                                              (0, 100, 1), (0, 100, 10)))
WORKERS = (1, 2)


def vertex_edges(g, count: int) -> list[tuple[int, int]]:
    """Every edge of ``g``'s ``count`` highest-degree vertices (ties by
    id), as sorted label pairs."""
    starts, lens, pool = g.adjacency_arrays()
    top = np.argsort(-lens, kind="stable")[:count]
    us = np.repeat(top, lens[top])
    vs = np.concatenate([pool[starts[v]:starts[v] + lens[v]] for v in top])
    pairs = np.unique(np.sort(np.stack([us, vs], 1), axis=1), axis=0)
    return list(map(tuple, g.labels()[pairs].tolist()))


def fan_out(log) -> tuple[float, float]:
    """(parallelism, straggler share) of the log's rounds: the level
    tasks' CPU time, and the sum of each round's slowest task wall time,
    over the rounds' fan-out wall time."""
    fanout = max(sum(r.fanout_ns for r in log.rounds), 1)
    cpu = sum(t.cpu_ns for r in log.rounds for t in r.tasks)
    slowest = sum(max(t.wall_ns for t in r.tasks) for r in log.rounds)
    return cpu / fanout, slowest / fanout


def run_case(case: Case, backend: str, seed: int) -> list[dict]:
    """One row per worker count: the engine on the case's batch, against
    the baseline on its seeded sample, all on the seed's graph."""
    g0 = generate_graph(case.model, case.n, case.deg, seed)
    cores0 = cm.peel(g0, backend=backend)
    insert = case.mode == "insert"
    if case.vertices:
        edges = vertex_edges(g0, case.vertices)
        if insert:  # the vertices' removal, untimed, then their return
            cm.delete_edges(g0, cores0, cm.build_delete_batch(g0, edges),
                            backend=backend)
    else:
        edges = (sample_new_edges if insert else sample_existing_edges)(
            g0, case.batch, seed)
    case = case._replace(batch=len(edges),
                         sample=min(case.sample, len(edges)))
    picked = np.random.default_rng(seed).choice(len(edges), case.sample,
                                                replace=False)
    subset = [edges[i] for i in np.sort(picked)]
    build = cm.build_insert_batch if insert else cm.build_delete_batch
    apply = cm.insert_edges if insert else cm.delete_edges

    def maintain(pairs, workers=None):
        """The engine with ``workers`` (the baseline when None) on copies
        of the loaded state: (log, seconds, cores equal peel)."""
        g, cores = g0.copy(), cores0.copy()
        batch = build(g, pairs)
        start = time.perf_counter()
        if workers is None:
            log = cm.sequential_baseline(g, cores, batch, case.mode,
                                         backend=backend)
        else:
            log = apply(g, cores, batch, workers=workers, backend=backend)
        seconds = time.perf_counter() - start
        return log, seconds, cores == cm.peel(g, backend=backend)

    _, base_s, base_ok = maintain(subset)
    baseline_ms = base_s / case.sample * 1e3
    rows = []
    for workers in WORKERS:
        log, engine_s, ok = maintain(edges, workers)
        parallelism, straggler_share = fan_out(log)
        engine_ms = engine_s / case.batch * 1e3
        rows.append({
            **case._asdict(), "backend": backend, "workers": workers,
            "engine_ms_per_edge": engine_ms,
            "baseline_ms_per_edge": baseline_ms,
            "speedup": baseline_ms / engine_ms,
            "rounds": log.rounds_executed,
            "replayed_rounds": log.replayed_rounds,
            "counters": asdict(log.counters),
            "runtime.parallelism": parallelism,
            "runtime.straggler_share": straggler_share,
            "correct": base_ok and ok,
        })
    return rows


def report(seed: int, cases=CASES) -> dict:
    """The JSON document: the run's environment, then one row per case,
    backend and worker count."""
    return {
        "git_sha": run.git_sha(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "cases": [c._asdict() for c in cases],
        "workers": list(WORKERS),
        "results": [row for case in cases
                    for backend in (cm.available_backends()
                                    if not case.vertices
                                    else [cm.default_backend_name()])
                    for row in run_case(case, backend, seed)],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="output file (default: standard output)")
    args = ap.parse_args(argv)
    doc = json.dumps(report(args.seed), indent=1)
    if args.out:
        Path(args.out).write_text(doc + "\n")
    else:
        print(doc)
    wrong = [r for r in json.loads(doc)["results"] if not r["correct"]]
    for r in wrong:
        print(f"CHECK FAILED: cores differ from peel: {r}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
