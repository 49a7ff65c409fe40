#!/usr/bin/env python3
"""The coremaint benchmark: one workload, one seed, one run.

    python3 corebench/run.py --workload er-insert-bulk --seed 1 \
        --seconds 15 --trace 0

Run from the repository root.  The program is imported from ``src/``.
Each workload is a closed loop with one caller: the next batch is built
only when the previous ``insert_edges``/``delete_edges`` call has
returned.  A batch is timed from its ``build_*_batch`` call to the return
of the engine call; input generation, batch sampling, state restores and
the output checks are not timed.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload's counted window twice from the same loaded graph, untraced and
then traced, and reports the per-layer metrics of the traced pass.
Either way the run ends with three checks of the final state: cores equal
a fresh ``peel``, the graph's edges equal the benchmark's own mirror of
the edge set, and cores equal ``networkx.core_number`` on that mirror.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every metric with its unit, the run's environment, and the
metrics that apply to only some workloads.  Results and, for traced runs,
the spans are also written under ``corebench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import socket
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKERS = 2  # this machine's nproc
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile


def import_program():
    """Import coremaint from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "coremaint"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"corebench: no coremaint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coremaint

    if Path(coremaint.__file__).resolve().parent != package:
        raise SystemExit(f"corebench: imported coremaint from "
                         f"{coremaint.__file__}, not from {package}")
    return coremaint


cm = import_program()
sys.path.insert(0, str(HERE))
from tracing import NullTracer, Tracer, span_metrics  # noqa: E402
from workloads import WORKLOADS, Spec, write_edge_list  # noqa: E402


class State:
    """The graph and cores the engine maintains, plus the loaded originals
    that ``reset`` restores by copy."""

    def __init__(self, g0, cores0):
        self.g0, self.cores0 = g0, cores0
        self.reset()

    def reset(self):
        self.g = self.g0.copy()
        self.cores = self.cores0.copy()


@dataclass
class BatchRecord:
    cycle: int
    kind: str  # "insert" or "delete"
    edges: int
    seconds: float
    counters: tuple[int, int, int, int, int]
    rounds: int
    bound: int  # max_multiplicity: the batch's round bound
    changed: int


@dataclass
class Pass:
    records: list[BatchRecord]
    attempted: int  # batches built, counting one that raised
    stream: object
    state: State
    error: str | None


def drive(spec: Spec, g0, cores0, base: np.ndarray, seed: int,
          seconds: float, tracer=NullTracer()) -> Pass:
    """Run cycles until at least ``spec.window`` are done and the timed
    batch work adds up to ``seconds``."""
    state = State(g0, cores0)
    stream = spec.stream(base, spec)
    records: list[BatchRecord] = []
    measured, cycle = 0.0, 0
    while cycle < spec.window or measured < seconds:
        rng = np.random.default_rng([seed, cycle])
        for kind, pairs in stream.cycle(state, rng):
            if kind == "check":
                if state.cores != cm.peel(state.g):
                    return Pass(records, len(records), stream, state,
                                f"cores differ from peel after batch "
                                f"{len(records) - 1}")
                continue
            edges = pairs.tolist()
            insert = kind == "insert"
            build = cm.build_insert_batch if insert else cm.build_delete_batch
            apply = cm.insert_edges if insert else cm.delete_edges
            tracer.batch = len(records)
            try:
                start = time.perf_counter()
                with tracer.span("batch.build"):
                    batch = build(state.g, edges)
                with tracer.span("engine.batch"):
                    log = apply(state.g, state.cores, batch, workers=WORKERS)
                elapsed = time.perf_counter() - start
            except Exception as exc:
                return Pass(records, len(records) + 1, stream, state,
                            f"batch {len(records)} ({kind}): {exc!r}")
            c = log.counters
            records.append(BatchRecord(
                cycle, kind, len(edges), elapsed,
                (c.visited, c.removed, c.neg_touches, c.sup_evals,
                 c.csup_evals),
                log.rounds_executed, log.max_multiplicity, log.changed_total))
            measured += elapsed
        cycle += 1
    tracer.batch = -1
    return Pass(records, len(records), stream, state, None)


def check_state(g, cores, expected_keys: np.ndarray, n: int) -> list[str]:
    """The three output checks; returns what failed, empty when correct."""
    import networkx as nx

    problems = []
    if cores != cm.peel(g):
        problems.append("cores differ from a fresh peel")
    labels = np.fromiter((g.label_of(i) for i in range(g.vertex_count)),
                         dtype=np.int64, count=g.vertex_count)
    dense = g.edge_array()
    lo = np.minimum(labels[dense[:, 0]], labels[dense[:, 1]])
    hi = np.maximum(labels[dense[:, 0]], labels[dense[:, 1]])
    if not np.array_equal(np.sort(lo * n + hi), expected_keys):
        problems.append("graph edges differ from the mirror")
    mirror = nx.Graph()
    mirror.add_nodes_from(labels.tolist())
    mirror.add_edges_from(zip((expected_keys // n).tolist(),
                              (expected_keys % n).tolist()))
    if nx.core_number(mirror) != cores.as_label_dict(g):
        problems.append("cores differ from networkx.core_number on the mirror")
    return problems


KERNEL_COUNTERS = ("visited", "removed", "neg_touches", "sup_evals",
                   "csup_evals")


def window_counters(records: list[BatchRecord], window: int) -> dict:
    """Kernel counters and batch totals over the counted window."""
    rows = [r for r in records if r.cycle < window]
    sums = [sum(r.counters[i] for r in rows) for i in range(5)]
    out = {f"kernels.{name}": (v, "count")
           for name, v in zip(KERNEL_COUNTERS, sums)}
    rounds = sum(r.rounds for r in rows)
    out["batch.rounds"] = (rounds, "count")
    out["batch.rounds_per_bound"] = (
        rounds / max(sum(r.bound for r in rows), 1), "ratio")
    out["engine.changed"] = (sum(r.changed for r in rows), "count")
    return out


def end_to_end(records: list[BatchRecord], setups: list[float],
               rss_mb: float) -> tuple[dict, dict]:
    """(metrics every workload reports, metrics that apply to some).

    A run cut short by a failure may lack a kind of batch; its figures
    then read 0, and the run is reported as not correct anyway.
    """
    inserts = [r.seconds * 1e3 for r in records if r.kind == "insert"]
    deletes = [r.seconds * 1e3 for r in records if r.kind == "delete"]
    cycles: dict[int, list[BatchRecord]] = {}
    for r in records:
        cycles.setdefault(r.cycle, []).append(r)
    rates = [sum(r.edges for r in rows) / sum(r.seconds for r in rows)
             for rows in cycles.values()]

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    common = {
        "setup_s": (median(setups), "s"),
        "edges_per_s": (median(rates), "edges/s"),
        "delete_ms_p50": (median(deletes), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    some = {}
    if inserts:
        some["insert_ms_p50"] = (median(inserts), "ms")
    for kind, xs in (("insert", inserts), ("delete", deletes)):
        if len(xs) >= P90_MIN_SAMPLES:
            some[f"{kind}_ms_p90"] = (statistics.quantiles(xs, n=10)[-1], "ms")
    some["inserts"] = (len(inserts), "count")
    some["deletes"] = (len(deletes), "count")
    return common, some


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without leaving the tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "backend": cm.default_backend_name(),
        "available_backends": cm.available_backends(),
        "workers": WORKERS,
        "git_sha": git_sha(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def load_and_peel(path, tracer=NullTracer()):
    with tracer.span("graph.load"):
        g = cm.load_edge_list(path)
    with tracer.span("static_core.peel"):
        cores = cm.peel(g)
    return g, cores


def run(spec: Spec, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object plus what is printed before it."""
    base = spec.base_keys(seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    graph_file = OUT / f"{stem}.edges"
    write_edge_list(graph_file, base, spec.n,
                    f"corebench {spec.name} seed {seed}")
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            g0, cores0 = load_and_peel(graph_file)
            setups.append(time.perf_counter() - start)
        if not trace:
            final = drive(spec, g0, cores0, base, seed, seconds)
            rss = peak_rss_mb()
        else:
            plain = drive(spec, g0, cores0, base, seed, 0.0)
            del g0, cores0
            with Tracer() as tracer:
                g0, cores0 = load_and_peel(graph_file, tracer)
                final = drive(spec, g0, cores0, base, seed, 0.0, tracer)
    finally:
        graph_file.unlink()

    records = final.records
    problems = [final.error] if final.error else []
    if trace:
        if plain.error:
            problems.append(f"untraced pass: {plain.error}")
        plain_counts = window_counters(plain.records, spec.window)
        traced_counts = window_counters(records, spec.window)
        if plain_counts != traced_counts:
            problems.append("traced and untraced kernel counters differ")
    problems += check_state(final.state.g, final.state.cores,
                            final.stream.expected_keys(), spec.n)
    # a wrong final state cannot be pinned on one batch: all count as failed
    attempted = final.attempted
    failed = attempted if problems else 0

    if trace:
        metrics = span_metrics(tracer)
        metrics.update(traced_counts)
        visited = traced_counts["kernels.visited"][0]
        metrics["kernels.changed_per_visited"] = (
            traced_counts["engine.changed"][0] / max(visited, 1), "ratio")
        metrics["kernels.ns_per_visit"] = (
            metrics["kernels.cpu_s"][0] * 1e9 / max(visited, 1), "ns")
        untraced_s = sum(r.seconds for r in plain.records)
        metrics["trace.overhead_share"] = (
            sum(r.seconds for r in records) / max(untraced_s, 1e-12) - 1.0,
            "ratio")
        extra = {}
    else:
        metrics, extra = end_to_end(records, setups, rss)
    extra["failed_batch_share"] = (failed / max(attempted, 1), "ratio")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    report = {"workload": spec.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "problems": problems, "result": result,
              "other_metrics": {k: {"value": v, "unit": u}
                                for k, (v, u) in extra.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if trace:
        tracer.write(OUT / f"{stem}.spans.csv.gz")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    report = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print("environment " + json.dumps(report["environment"]))
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    shown = {**report["result"]["metrics"], **report["other_metrics"]}
    for name, m in shown.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
