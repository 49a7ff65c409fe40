#!/usr/bin/env python3
"""Where the time of a delete batch goes, phase by phase.

    python3 benchmarks/small_batch_phases.py [--seed 1] [--seconds 5]
        [--workload ba-mixed-small]

Runs a corebench workload (by default ``ba-mixed-small``: BA graph,
n=2^14; 8-edge batches, each an insert or a delete by a fair coin; for
bulk deletes, ``er-delete-bulk``), with corebench's 2 workers, twice from
the same loaded graph: untraced, then under corebench's tracer.  Prints
the median wall time of a delete batch in the untraced pass, then splits
the traced pass's mean delete batch into its phases:

- build: ``build_delete_batch``;
- plan: ``plan_round``;
- mutate: ``Graph._remove_dense``;
- kernel call: the level tasks' wall time, summed over the round's tasks,
  from the engine's round records;
- fan-out self: ``run_level_tasks`` less, per round, the kernel time of
  its busiest worker (the records again);
- engine self: the rest of ``delete_edges``, its one edge lookup
  included.

Times are in microseconds.  Run from the repository root; the program is
imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "corebench"))

import run  # noqa: E402  (corebench/run.py; imports coremaint from src/)
from tracing import Tracer, span_metrics  # noqa: E402


def kernel_seconds(logs) -> tuple[float, float]:
    """(all level tasks' wall time, the busiest worker's per round) summed
    over the logs' rounds."""
    total = busiest = 0
    for log in logs:
        for rec in log.rounds:
            per_worker = Counter()
            for t in rec.tasks:
                per_worker[t.worker] += t.wall_ns
            total += sum(per_worker.values())
            busiest += max(per_worker.values())
    return total * 1e-9, busiest * 1e-9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--workload", choices=sorted(run.WORKLOADS),
                    default="ba-mixed-small")
    args = ap.parse_args(argv)
    spec = run.WORKLOADS[args.workload]
    base = spec.base_keys(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.edges"
        run.write_edge_list(path, base, spec.n, "small_batch_phases")
        g0, cores0 = run.load_and_peel(path)
    plain = run.drive(spec, g0, cores0, base, args.seed, args.seconds)
    logs, delete_edges = [], run.cm.delete_edges

    def logged(*a, **kw):
        logs.append(delete_edges(*a, **kw))
        return logs[-1]

    with mock.patch.object(run.cm, "delete_edges", logged), \
            Tracer() as tracer:
        traced = run.drive(spec, g0, cores0, base, args.seed, args.seconds,
                           tracer)
    if plain.error or traced.error:
        raise SystemExit(f"run failed: {plain.error or traced.error}")
    deletes = {i for i, r in enumerate(traced.records) if r.kind == "delete"}
    tracer.spans = [s for s in tracer.spans if s.batch in deletes]
    metrics = span_metrics(tracer)
    kernel_s, busiest_s = kernel_seconds(logs)
    phases = (("build", metrics["batch.build_s"][0]),
              ("plan", metrics["batch.plan_s"][0]),
              ("mutate", metrics["graph.mutate_s"][0]),
              ("kernel call", kernel_s),
              ("fan-out self", metrics["runtime.fanout_s"][0] - busiest_s),
              ("engine self", metrics["engine.self_s"][0]))
    per = 1e6 / len(deletes)
    median = statistics.median(r.seconds for r in plain.records
                               if r.kind == "delete")
    print(f"{args.workload}, backend {run.cm.default_backend_name()}, "
          f"seed {args.seed}: {len(deletes)} traced delete batches")
    print(f"untraced delete batch median {median * 1e6:8.1f} us")
    for name, seconds in phases:
        print(f"  {name:<14}{seconds * per:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
