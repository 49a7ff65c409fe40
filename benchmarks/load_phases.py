#!/usr/bin/env python3
"""Where the time of loading a corebench graph goes, phase by phase.

    python3 benchmarks/load_phases.py [--seed 1] [--workload er-delete-bulk]

Writes the workload's edge-list file as corebench does, then loads and
peels it five times on every available kernel backend and prints the
median time of each phase in milliseconds:

- read: the file's bytes;
- parse: the backend's ``parse_pairs``;
- rank: ``graph._rank_labels`` (the labels' dense ids) inside
  ``Graph.from_edges``;
- pool build: the rest of ``Graph.from_edges``;
- peel: ``peel`` on the backend;
- cores: ``read_core_file`` on those cores, written as ``coremaint
  verify`` reads them into the temporary directory, parsed by the
  backend's ``parse_pairs``.

Then it checks that every backend loaded the same graph (adjacency
arrays, labels, load stats, comment count, cores and the core file's
rows) and exits with status 1 if not.  Run from the repository root; the program is imported
from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "corebench"))

import run  # noqa: E402  (corebench/run.py; imports coremaint from src/)
from coremaint import graph, static_core  # noqa: E402

REPEATS = 5
PHASES = ("read", "parse", "rank", "pool build", "peel", "cores")


def fingerprint(g, comments: int, cores, rows) -> str:
    """A digest of everything a load produces."""
    h = hashlib.sha256()
    arrays = [g._starts, g._lens, g._caps, g._pool, cores.values,
              g.labels(), rows]
    index = g._label_index  # None, a table or a (labels, ids) pair
    arrays += [] if index is None else \
        list(index) if isinstance(index, tuple) else [index]
    for a in arrays:
        h.update(a.dtype.str.encode() + a.tobytes() + b"|")
    h.update(repr((index is None, vars(g.load_stats),
                   comments)).encode())
    return h.hexdigest()


def load_once(path: Path, backend: str) -> tuple[dict, str]:
    """Load and peel ``path`` on ``backend``: (seconds per phase, the
    fingerprint of the result)."""
    tick = time.perf_counter
    spent = {}
    start = tick()
    data = path.read_bytes()
    spent["read"] = tick() - start
    start = tick()
    parsed = run.cm.get_backend(backend).parse_pairs(data)
    spent["parse"] = tick() - start
    if parsed is None:
        raise SystemExit(f"{path.name}: outside the subset parse_pairs reads")
    pairs, comments = parsed
    rank = graph._rank_labels

    def timed_rank(flat):
        begin = tick()
        out = rank(flat)
        spent["rank"] = tick() - begin
        return out

    graph._rank_labels = timed_rank
    try:
        start = tick()
        g = graph.Graph.from_edges(pairs)
        spent["pool build"] = tick() - start - spent["rank"]
    finally:
        graph._rank_labels = rank
    start = tick()
    cores = run.cm.peel(g, backend=backend)
    spent["peel"] = tick() - start
    core_path = path.with_name("graph.cores")
    static_core.write_core_file(core_path, g, cores)
    default = graph.get_backend
    graph.get_backend = lambda name=None: default(backend)
    try:
        start = tick()
        rows = static_core.read_core_file(core_path)
        spent["cores"] = tick() - start
    finally:
        graph.get_backend = default
    return spent, fingerprint(g, comments, cores, rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=sorted(run.WORKLOADS),
                    default="er-delete-bulk")
    args = ap.parse_args(argv)
    spec = run.WORKLOADS[args.workload]
    prints = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.edges"
        run.write_edge_list(path, spec.base_keys(args.seed), spec.n,
                            "load_phases")
        print(f"{args.workload}, seed {args.seed}: {path.stat().st_size} "
              f"bytes; median of {REPEATS} loads, ms")
        print(f"  {'backend':<8}" + "".join(f"{p:>11}" for p in PHASES))
        for backend in run.cm.available_backends():
            runs = [load_once(path, backend) for _ in range(REPEATS)]
            prints[backend] = {fp for _, fp in runs}
            medians = [statistics.median(s[p] for s, _ in runs) * 1e3
                       for p in PHASES]
            print(f"  {backend:<8}" + "".join(f"{m:11.1f}" for m in medians))
    same = len(set().union(*prints.values())) == 1
    print("backends load identical graphs" if same
          else f"backends load different graphs: {prints}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
