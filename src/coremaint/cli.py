"""Command-line front end.

Subcommands: insert | delete | verify | bench | gen.
Exit codes: 0 ok, 1 runtime/IO error, 2 usage, 3 verification mismatch.
Timing covers maintenance only, never file IO.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from .batch import BatchError, build_delete_batch, build_insert_batch
from .engine import delete_edges, insert_edges, sequential_baseline
from .gen import (generate_graph, sample_existing_edges, sample_new_edges,
                  stratum_size)
from .graph import (EdgeListParseError, Graph, load_edge_list_with_stats,
                    read_edge_pairs, save_edge_list)
from .kernels import (BACKENDS, FALLBACK_REASON, available_backends,
                      get_backend)
from .static_core import peel, read_core_file, write_core_file


@dataclass
class BenchRow:
    dataset: str
    mode: str
    backend: str
    threads: int
    batch_size: int
    max_multiplicity: int
    rounds: int
    total_s: float
    per_edge_ms: float
    visited: int
    neg_touches: int
    speedup: float | None = None
    round_details: list[str] = field(default_factory=list)

    HEADER = ("dataset\tmode\tbackend\tthreads\tbatch\tmax_mult\trounds\t"
              "total_s\tper_edge_ms\tvisited\tneg_touches\tspeedup")

    def row(self) -> str:
        spd = f"{self.speedup:.2f}" if self.speedup is not None else "-"
        return (f"{self.dataset}\t{self.mode}\t{self.backend}\t{self.threads}"
                f"\t{self.batch_size}\t{self.max_multiplicity}\t{self.rounds}"
                f"\t{self.total_s:.4f}\t{self.per_edge_ms:.4f}"
                f"\t{self.visited}\t{self.neg_touches}\t{spd}")


def _load_graph(args) -> tuple[Graph, str]:
    if args.graph:
        g, stats = load_edge_list_with_stats(args.graph)
        print(f"loaded {args.graph}: {g.vertex_count} vertices "
              f"{g.edge_count} edges (dropped {stats.dropped_duplicates} "
              f"duplicates, {stats.dropped_self_loops} self-loops)",
              file=sys.stderr)
        return g, str(args.graph)
    if getattr(args, "gen", None):
        g = generate_graph(args.gen, args.n, args.deg, args.seed)
        return g, f"{args.gen}-n{args.n}-d{args.deg}"
    raise ValueError("need --graph PATH or --gen er|ba")


def _batch_edges(args, g: Graph, cores, mode: str):
    """The batch's label pairs: an (m, 2) array read from ``--batch`` or a
    sampled list of pairs."""
    if args.batch:
        pairs, _ = read_edge_pairs(args.batch)
        return pairs
    if not args.batch_size:
        raise ValueError("need --batch PATH or --batch-size N")
    level = args.core_stratum
    if mode == "insert":
        return sample_new_edges(g, args.batch_size, args.seed,
                                level=level, cores=cores)
    return sample_existing_edges(g, args.batch_size, args.seed,
                                 level=level, cores=cores)


def _fallback_note(name: str) -> str:
    return f" ({FALLBACK_REASON})" if name == "python" and FALLBACK_REASON else ""


def _timed_run(g: Graph, cores, edges, mode: str, backend, workers: int,
               baseline: bool):
    """Build the batch, then time the engine (or the edge-by-edge baseline)
    on it.  Returns the log, the seconds and the milliseconds per edge."""
    build = build_insert_batch if mode == "insert" else build_delete_batch
    batch = build(g, edges)
    start = time.perf_counter()
    if baseline:
        log = sequential_baseline(g, cores, batch, mode, backend=backend)
    else:
        run = insert_edges if mode == "insert" else delete_edges
        log = run(g, cores, batch, workers=workers, backend=backend)
    elapsed = time.perf_counter() - start
    return log, elapsed, (elapsed / log.batch_size * 1000
                          if log.batch_size else 0.0)


def _run_maintenance(args, mode: str) -> int:
    g, _ = _load_graph(args)
    backend = get_backend(args.backend)
    cores = peel(g, backend=args.backend)
    edges = _batch_edges(args, g, cores, mode)
    log, elapsed, per_edge = _timed_run(g, cores, edges, mode, backend,
                                        args.threads_one, args.baseline)
    print(f"{mode}: {log.edges_applied} edges applied in {elapsed:.4f}s "
          f"({per_edge:.4f} ms/edge), rounds={log.rounds_executed}, "
          f"changed={log.changed_total}, visited={log.counters.visited}, "
          f"backend={backend.NAME}{_fallback_note(backend.NAME)}, "
          f"threads={args.threads_one}")
    if log.dropped_existing:
        print(f"dropped {log.dropped_existing} already-present edges",
              file=sys.stderr)
    if args.out_cores:
        write_core_file(args.out_cores, g, cores)
    if args.log:
        with open(args.log, "wt", encoding="utf-8") as fh:
            log.write_text(fh, g)
    return 0


def cmd_insert(args) -> int:
    return _run_maintenance(args, "insert")


def cmd_delete(args) -> int:
    return _run_maintenance(args, "delete")


def cmd_verify(args) -> int:
    g, _ = _load_graph(args)
    cores = peel(g, backend=args.backend)
    recorded = read_core_file(args.cores)
    labels = sorted(g.label_of(i) for i in range(g.vertex_count))
    for label in labels:
        expected = cores.of(g, label)
        found = recorded.get(label)
        if found != expected:
            print(f"mismatch at vertex {label}: expected {expected}, "
                  f"file has {found if found is not None else 'nothing'}")
            return 3
    extra = set(recorded) - set(labels)
    if extra:
        label = min(extra)
        print(f"mismatch at vertex {label}: not in graph, "
              f"file has {recorded[label]}")
        return 3
    print(f"verified {len(labels)} vertices")
    return 0


def cmd_gen(args) -> int:
    g = generate_graph(args.gen, args.n, args.deg, args.seed)
    save_edge_list(g, args.out if args.out else sys.stdout)
    print(f"generated {args.gen}: {g.vertex_count} vertices "
          f"{g.edge_count} edges (seed {args.seed})", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    if args.backend != "both":
        backends = [get_backend(args.backend).NAME]
    elif "c" in BACKENDS:
        backends = ["c", "python"]
    else:
        raise RuntimeError(f"--backend both: {FALLBACK_REASON}")
    g0, dataset = _load_graph(args)
    cores0 = peel(g0, backend=backends[0])
    edges = _batch_edges(args, g0, cores0, args.mode)
    if args.core_stratum is not None:
        print(f"core stratum {args.core_stratum}: "
              f"{stratum_size(g0, cores0, args.core_stratum)} candidate edges",
              file=sys.stderr)
    runs = [(False, int(t)) for t in str(args.threads).split(",")]
    if args.baseline:
        runs.insert(0, (True, 1))

    rows = []
    for backend in backends:
        base_per_edge = None
        for baseline, t in runs:
            log, dt, per_edge = _timed_run(g0.copy(), cores0.copy(), edges,
                                           args.mode, backend, t, baseline)
            speedup = base_per_edge / per_edge if base_per_edge else None
            if baseline:
                base_per_edge = per_edge
            row = BenchRow(dataset, log.mode, backend, t, log.batch_size,
                           log.max_multiplicity, log.rounds_executed, dt,
                           per_edge, log.counters.visited,
                           log.counters.neg_touches, speedup)
            if args.per_round:
                row.round_details = [
                    f"# round {r.index}: levels={list(r.levels)} "
                    f"edges={sum(len(e) for e in r.edges_at_level.values())} "
                    f"changed={len(r.changed)} visited={r.counters.visited} "
                    f"neg_touches={r.counters.neg_touches}"
                    for r in log.rounds]
            rows.append(row)

    print(BenchRow.HEADER)
    for row in rows:
        print(row.row())
        for detail in row.round_details:
            print(detail)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coremaint",
        description="batch-parallel core maintenance for dynamic graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, batch=True):
        p.add_argument("--graph", help="edge list file")
        p.add_argument("--gen", choices=["er", "ba"],
                       help="generate the input graph instead")
        p.add_argument("--n", type=int, default=1000,
                       help="generator vertex count")
        p.add_argument("--deg", type=int, default=8,
                       help="generator edges per vertex")
        p.add_argument("--seed", type=int, default=1, help="RNG seed")
        p.add_argument("--backend", default=None,
                       help=f"kernel backend ({'|'.join(available_backends())})")
        if batch:
            p.add_argument("--batch", help="batch edge list file")
            p.add_argument("--batch-size", type=int, default=0,
                           help="sample a batch of this size instead")
            p.add_argument("--core-stratum", type=int, default=None,
                           help="restrict sampled batch to this core level")

    for name, fn in (("insert", cmd_insert), ("delete", cmd_delete)):
        p = sub.add_parser(name, help=f"apply a batch of edge {name}s")
        common(p)
        p.add_argument("--threads", dest="threads_one", type=int, default=1,
                       help="worker limit")
        p.add_argument("--out-cores", help="write final core numbers here")
        p.add_argument("--log", help="write the per-round change log here")
        p.add_argument("--baseline", action="store_true",
                       help="process edges one at a time instead")
        p.set_defaults(func=fn)

    p = sub.add_parser("verify", help="check a core file against peeling")
    common(p, batch=False)
    p.add_argument("--cores", required=True, help="core file to verify")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="benchmark maintenance throughput")
    common(p)
    p.add_argument("--mode", choices=["insert", "delete"], default="insert")
    p.add_argument("--threads", default="1",
                   help="comma-separated worker counts, e.g. 1,2,8")
    p.add_argument("--baseline", action="store_true",
                   help="also run the sequential baseline and report speedup")
    p.add_argument("--per-round", action="store_true",
                   help="emit per-round counter lines")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="write a synthetic graph as an edge list")
    common(p, batch=False)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None) == "both" and args.command != "bench":
        parser.error("--backend both is only valid for bench")
    try:
        return args.func(args)
    except (OSError, EdgeListParseError, BatchError, ValueError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
