"""Command-line front end.

Subcommands: insert | delete | verify | gen.
Exit codes: 0 ok, 1 runtime/IO error, 2 usage, 3 verification mismatch.
Timing covers maintenance only, never file IO.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .batch import BatchError, build_delete_batch, build_insert_batch
from .engine import delete_edges, insert_edges, sequential_baseline
from .gen import generate_graph, sample_existing_edges, sample_new_edges
from .graph import (EdgeListParseError, Graph, load_edge_list,
                    read_edge_pairs, save_edge_list)
from .kernels import FALLBACK_REASON, available_backends, get_backend
from .static_core import peel, read_core_file, write_core_file


def _load_graph(args) -> Graph:
    if args.graph:
        g = load_edge_list(args.graph)
        stats = g.load_stats
        print(f"loaded {args.graph}: {g.vertex_count} vertices "
              f"{g.edge_count} edges (dropped {stats.dropped_duplicates} "
              f"duplicates, {stats.dropped_self_loops} self-loops)",
              file=sys.stderr)
        return g
    if args.gen:
        return generate_graph(args.gen, args.n, args.deg, args.seed)
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


def _run_maintenance(args, mode: str) -> int:
    if args.threads < 1:  # before any work, with or without --baseline
        raise ValueError(f"workers must be >= 1, got {args.threads}")
    g = _load_graph(args)
    backend = get_backend(args.backend)
    cores = peel(g, backend=backend)
    edges = _batch_edges(args, g, cores, mode)
    build = build_insert_batch if mode == "insert" else build_delete_batch
    batch = build(g, edges)
    threads = 1 if args.baseline else args.threads
    start = time.perf_counter()
    if args.baseline:
        log = sequential_baseline(g, cores, batch, mode, backend=backend)
    else:
        run = insert_edges if mode == "insert" else delete_edges
        log = run(g, cores, batch, workers=threads, backend=backend)
    elapsed = time.perf_counter() - start
    per_edge = elapsed / log.batch_size * 1000 if log.batch_size else 0.0
    print(f"{mode}: {log.edges_applied} edges applied in {elapsed:.4f}s "
          f"({per_edge:.4f} ms/edge), rounds={log.rounds_executed}, "
          f"changed={log.changed_total}, visited={log.counters.visited}, "
          f"backend={backend.NAME}{_fallback_note(backend.NAME)}, "
          f"threads={threads}")
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
    g = _load_graph(args)
    expected = peel(g, backend=args.backend).values
    rows = read_core_file(args.cores)
    dense = g._dense_ids(rows[:, 0])
    in_graph = dense >= 0
    # each vertex's core as the file has it; -1 where it has no row
    recorded = np.full(g.vertex_count, -1, dtype=np.int64)
    recorded[dense[in_graph]] = rows[in_graph, 1]
    wrong = (recorded != expected).nonzero()[0]
    if len(wrong):
        v = wrong[g.labels()[wrong].argmin()]
        found = recorded[v] if recorded[v] >= 0 else "nothing"
        print(f"mismatch at vertex {g.label_of(v)}: expected "
              f"{expected[v]}, file has {found}")
        return 3
    extra = rows[~in_graph]
    if len(extra):
        label, core = extra[extra[:, 0].argmin()]
        print(f"mismatch at vertex {label}: not in graph, file has {core}")
        return 3
    print(f"verified {g.vertex_count} vertices")
    return 0


def cmd_gen(args) -> int:
    g = generate_graph(args.gen, args.n, args.deg, args.seed)
    save_edge_list(g, args.out if args.out else sys.stdout)
    print(f"generated {args.gen}: {g.vertex_count} vertices "
          f"{g.edge_count} edges (seed {args.seed})", file=sys.stderr)
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
        p.add_argument("--threads", type=int, default=1,
                       help="worker limit (the baseline uses one)")
        p.add_argument("--out-cores", help="write final core numbers here")
        p.add_argument("--log", help="write the per-round change log here")
        p.add_argument("--baseline", action="store_true",
                       help="process edges one at a time instead")
        p.set_defaults(func=fn)

    p = sub.add_parser("verify", help="check a core file against peeling")
    common(p, batch=False)
    p.add_argument("--cores", required=True, help="core file to verify")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write a synthetic graph as an edge list")
    common(p, batch=False)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, EdgeListParseError, BatchError, ValueError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
