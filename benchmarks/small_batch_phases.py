#!/usr/bin/env python3
"""Where the time of a small delete batch goes, phase by phase.

    python3 benchmarks/small_batch_phases.py [--seed 1] [--seconds 5]

Runs corebench's ``ba-mixed-small`` workload (BA graph, n=2^14; 8-edge
batches, each an insert or a delete by a fair coin; 2 workers) twice from
the same loaded graph: untraced, then under corebench's tracer.  Prints
the median wall time of a delete batch in the untraced pass, then splits
the traced pass's mean delete batch into its phases:

- build: ``build_delete_batch``, its edge lookup included;
- plan: ``plan_round``;
- mutate: ``Graph._remove_dense``;
- kernel call: the level kernels, summed over the round's tasks;
- fan-out self: ``run_level_tasks`` outside the kernels;
- engine self: the rest of ``delete_edges``.

Times are in microseconds.  Run from the repository root; the program is
imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "corebench"))

import run  # noqa: E402  (corebench/run.py; imports coremaint from src/)
from tracing import Tracer, span_metrics  # noqa: E402

PHASES = (("build", "batch.build_s"), ("plan", "batch.plan_s"),
          ("mutate", "graph.mutate_s"), ("kernel call", "kernels.wall_s"),
          ("fan-out self", "runtime.self_s"), ("engine self", "engine.self_s"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    args = ap.parse_args(argv)
    spec = run.WORKLOADS["ba-mixed-small"]
    base = spec.base_keys(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ba.edges"
        run.write_edge_list(path, base, spec.n, "small_batch_phases")
        g0, cores0 = run.load_and_peel(path)
    plain = run.drive(spec, g0, cores0, base, args.seed, args.seconds)
    with Tracer() as tracer:
        traced = run.drive(spec, g0, cores0, base, args.seed, args.seconds,
                           tracer)
    if plain.error or traced.error:
        raise SystemExit(f"run failed: {plain.error or traced.error}")
    deletes = {i for i, r in enumerate(traced.records) if r.kind == "delete"}
    tracer.spans = [s for s in tracer.spans if s.batch in deletes]
    metrics = span_metrics(tracer)
    per = 1e6 / len(deletes)
    median = statistics.median(r.seconds for r in plain.records
                               if r.kind == "delete")
    print(f"backend {run.cm.default_backend_name()}, seed {args.seed}: "
          f"{len(deletes)} traced delete batches")
    print(f"untraced delete batch median {median * 1e6:8.1f} us")
    for name, key in PHASES:
        print(f"  {name:<14}{metrics[key][0] * per:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
