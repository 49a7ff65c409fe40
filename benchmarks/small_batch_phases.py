#!/usr/bin/env python3
"""Where the time of a delete or insert batch goes, phase by phase and
round by round.

    python3 benchmarks/small_batch_phases.py [--seed 1] [--seconds 5]
        [--workload ba-mixed-small]

Runs a corebench workload (by default ``ba-mixed-small``: BA graph,
n=2^14; 8-edge batches, each an insert or a delete by a fair coin; for
bulk deletes, ``er-delete-bulk``; for bulk inserts, ``er-insert-bulk``),
with corebench's 2 workers, twice from the same loaded graph: untraced,
then under corebench's tracer.  The batches studied are the inserts of
``er-insert-bulk``, whose deletes only undo them, and the deletes of the
other workloads.  Prints the median wall time of such a batch in the
untraced pass, then splits the traced pass's mean batch into its phases:

- build: ``build_delete_batch`` or ``build_insert_batch``;
- plan: ``plan_round``;
- mutate: ``Graph._remove_dense`` and ``Graph._add_dense``;
- kernel call: the level tasks' wall time, summed over the round's tasks,
  from the engine's round records;
- fan-out self: ``run_level_tasks`` less, per round, the kernel time of
  its busiest worker (the records again), less the replayed calls;
- replayed: the ``run_level_tasks`` calls of free rounds that were undone
  and planned again (``MaintenanceLog.replayed_ns``; their undo is in
  mutate);
- engine self: the rest of the engine call, its one edge lookup
  included.

Then, from the round records, the mean rounds per batch (and replayed
free rounds), and the mean kernel visits and fan-out time per batch of
round 1 and of the later committed rounds.

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
from workloads import InsertUndo  # noqa: E402


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
    kind = "insert" if spec.stream is InsertUndo else "delete"
    base = spec.base_keys(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.edges"
        run.write_edge_list(path, base, spec.n, "small_batch_phases")
        g0, cores0 = run.load_and_peel(path)
    plain = run.drive(spec, g0, cores0, base, args.seed, args.seconds)
    engine_call = f"{kind}_edges"
    logs, engine = [], getattr(run.cm, engine_call)

    def logged(*a, **kw):
        logs.append(engine(*a, **kw))
        return logs[-1]

    with mock.patch.object(run.cm, engine_call, logged), \
            Tracer() as tracer:
        traced = run.drive(spec, g0, cores0, base, args.seed, args.seconds,
                           tracer)
    if plain.error or traced.error:
        raise SystemExit(f"run failed: {plain.error or traced.error}")
    chosen = {i for i, r in enumerate(traced.records) if r.kind == kind}
    if not chosen:
        raise SystemExit(f"{args.workload} ran no {kind} batch")
    tracer.spans = [s for s in tracer.spans if s.batch in chosen]
    metrics = span_metrics(tracer)
    kernel_s, busiest_s = kernel_seconds(logs)
    replayed_s = sum(log.replayed_ns for log in logs) * 1e-9
    phases = (("build", metrics["batch.build_s"][0]),
              ("plan", metrics["batch.plan_s"][0]),
              ("mutate", metrics["graph.mutate_s"][0]),
              ("kernel call", kernel_s),
              ("fan-out self",
               metrics["runtime.fanout_s"][0] - busiest_s - replayed_s),
              ("replayed", replayed_s),
              ("engine self", metrics["engine.self_s"][0]))
    per = 1e6 / len(chosen)
    median = statistics.median(r.seconds for r in plain.records
                               if r.kind == kind)
    print(f"{args.workload}, backend {run.cm.default_backend_name()}, "
          f"seed {args.seed}: {len(chosen)} traced {kind} batches")
    print(f"untraced {kind} batch median {median * 1e6:8.1f} us")
    for name, seconds in phases:
        print(f"  {name:<14}{seconds * per:8.1f} us")
    rounds = sum(log.rounds_executed for log in logs) / len(logs)
    replayed = sum(log.replayed_rounds for log in logs) / len(logs)
    print(f"rounds per batch {rounds:.2f} (replayed {replayed:.2f})")
    for name, part in (("round 1", slice(None, 1)),
                       ("rounds 2+", slice(1, None))):
        recs = [rec for log in logs for rec in log.rounds[part]]
        visits = sum(rec.counters.visited for rec in recs) / len(logs)
        fanout = sum(rec.fanout_ns for rec in recs) * 1e-3 / len(logs)
        print(f"{name:<10} visits {visits:10.1f}  fan-out {fanout:10.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
