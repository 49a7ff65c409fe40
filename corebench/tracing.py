"""Spans around the calls into each coremaint layer, for the traced run.

The tracer patches names where the engine looks them up —
``coremaint.engine.plan_round``, ``coremaint.engine.run_level_tasks``,
the kernel functions of the backend module and the mutation and lookup
methods of ``Graph`` — and the benchmark wraps its own calls into the
graph loader, ``peel``, batch building and the engines with
``Tracer.span``.  Leaving the ``with Tracer()`` block restores every
patched name.

Spans stay in memory until the run ends.  Each records its name, start,
end, parent span, thread and batch id; kernel spans also record the
thread CPU time they used.  Kernel spans run on pool threads, where the
tracer's main-thread stack does not apply, so their parent is the
enclosing ``run_level_tasks`` span, kept on the tracer itself: a
``ThreadPoolExecutor`` copies neither thread-local state nor context
variables into its workers.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import coremaint.engine as engine_module
from coremaint.graph import Graph
from coremaint.kernels import get_backend


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    thread: int
    batch: int  # -1 outside any batch
    cpu: float  # thread CPU seconds; kernel spans only

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NoSpan:
    def __enter__(self):
        return -1

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs."""

    batch = -1
    _none = _NoSpan()

    def span(self, name: str):
        return self._none


class _OpenSpan:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self) -> int:
        tr = self.tracer
        self.id = next(tr._ids)
        self.parent = tr._stack[-1]
        tr._stack.append(self.id)
        self.start = time.perf_counter()
        return self.id

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append(Span(self.id, self.name, self.start, end, self.parent,
                             threading.get_ident(), tr.batch, 0.0))
        return False


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.spans`` after."""

    def __init__(self):
        self.spans: list[Span] = []
        self.batch = -1
        self.scanned = 0  # live batch edges scanned by plan_round
        self.selected = 0  # edges plan_round selected
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._stack = [-1]  # open main-thread spans
        self._fanout = -1  # open run_level_tasks span, parent of kernels
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    # ------------------------------------------------------------------
    # wrappers

    def _main(self, name: str, fn):
        """A function that always runs on the main thread."""
        def traced(*args, **kwargs):
            with _OpenSpan(self, name):
                return fn(*args, **kwargs)
        return traced

    def _plan(self, fn):
        def traced(batch, *args, **kwargs):
            scanned = batch.remaining
            with _OpenSpan(self, "batch.plan"):
                plan = fn(batch, *args, **kwargs)
            self.scanned += scanned
            self.selected += len(plan.selected_indices)
            return plan
        return traced

    def _fan_out(self, fn):
        def traced(*args, **kwargs):
            with _OpenSpan(self, "runtime.fanout") as sid:
                self._fanout = sid
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._fanout = -1
        return traced

    def _kernel(self, name: str, fn):
        """A level task; runs on a pool thread or, for one level, inline."""
        def traced(*args, **kwargs):
            parent, sid = self._fanout, next(self._ids)
            cpu0, start = time.thread_time(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end, cpu1 = time.perf_counter(), time.thread_time()
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), self.batch,
                                       cpu1 - cpu0))
        return traced

    # ------------------------------------------------------------------
    # install / restore

    def __enter__(self) -> "Tracer":
        be = get_backend()
        plan = [
            (engine_module, "plan_round", self._plan),
            (engine_module, "run_level_tasks", self._fan_out),
            (be, "insert_level", lambda f: self._kernel("kernels.insert", f)),
            (be, "delete_level", lambda f: self._kernel("kernels.delete", f)),
            (Graph, "_add_dense", lambda f: self._main("graph.mutate", f)),
            (Graph, "_remove_dense", lambda f: self._main("graph.mutate", f)),
            (Graph, "_has_dense", lambda f: self._main("graph.has_edge", f)),
        ]
        try:
            for owner, attr, wrap in plan:
                original = vars(owner)[attr]
                setattr(owner, attr, wrap(original))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """All spans as gzip-compressed CSV, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,thread,batch,cpu_s\n")
            for s in sorted(self.spans):
                fh.write(f"{s.id},{s.name},{s.start:.9f},{s.end:.9f},"
                         f"{s.parent},{s.thread},{s.batch},{s.cpu:.9f}\n")


# ----------------------------------------------------------------------
# per-layer metrics from the spans


def _covered(span: Span, children: list[Span]) -> float:
    """Length of ``span`` covered by the union of the children's intervals
    (children on several threads may overlap)."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _self_seconds(spans: list[Span], children) -> float:
    return sum(s.seconds - _covered(s, children[s.id]) for s in spans)


def span_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Times, calls and ratios that the spans alone determine."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def seconds(name: str) -> float:
        return sum(s.seconds for s in by_name[name])

    fanouts = by_name["runtime.fanout"]
    kernels = by_name["kernels.insert"] + by_name["kernels.delete"]
    fanout_s = seconds("runtime.fanout")
    kernel_s = sum(s.seconds for s in kernels)
    slowest = sum(max((c.seconds for c in children[f.id]), default=0.0)
                  for f in fanouts)
    return {
        "graph.load_s": (seconds("graph.load"), "s"),
        "graph.mutate_s": (seconds("graph.mutate"), "s"),
        "graph.mutate_calls": (len(by_name["graph.mutate"]), "count"),
        "graph.has_edge_s": (seconds("graph.has_edge"), "s"),
        "graph.has_edge_calls": (len(by_name["graph.has_edge"]), "count"),
        "static_core.peel_s": (seconds("static_core.peel"), "s"),
        "batch.build_s": (seconds("batch.build"), "s"),
        "batch.plan_s": (seconds("batch.plan"), "s"),
        "batch.select_ratio": (tracer.selected / max(tracer.scanned, 1),
                               "ratio"),
        "runtime.fanout_s": (fanout_s, "s"),
        "runtime.tasks": (len(kernels), "count"),
        "runtime.self_s": (_self_seconds(fanouts, children), "s"),
        "runtime.parallelism": (sum(s.cpu for s in kernels)
                                / max(fanout_s, 1e-12), "ratio"),
        "runtime.straggler_share": (slowest / max(fanout_s, 1e-12), "ratio"),
        "kernels.wall_s": (kernel_s, "s"),
        "kernels.cpu_s": (sum(s.cpu for s in kernels), "s"),
        "engine.batch_s": (seconds("engine.batch"), "s"),
        "engine.self_s": (_self_seconds(by_name["engine.batch"], children),
                          "s"),
    }
