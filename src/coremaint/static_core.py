"""Static core decomposition by linear-time peeling, and core files.

``peel`` is the initializer and the correctness yardstick for the dynamic
engines.  It also counts each vertex's support: the number of its
neighbours whose core is at least its own (the max-core degree of
Sariyüce et al., VLDB 2013).  The level kernels prune with it, and the
engines keep it up to date round by round instead of counting it again.

A ``CoreMap``'s support is valid for the graph whose ``edge_state`` token
it keeps in ``counted_for``, and for the cores it holds.  ``peel`` and
the engines set that token; a copy of the map keeps it, as a copy of the
graph keeps the graph's; any edge mutation outside the engines gives the
graph a new token.  An engine recounts the support (one backend call)
when the tokens differ, clears ``counted_for`` while a batch runs, and
sets it again when the batch returns, so a batch that raised leaves the
next one to recount.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (EdgeListParseError, Graph, _text_lines, _write_rows,
                    read_edge_pairs)
from .kernels import get_backend


@dataclass
class CoreMap:
    """Per-vertex core numbers, indexed by dense vertex id, and the
    support that goes with them (module docstring)."""

    values: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    # per vertex: its neighbours of core at least its own (int32), or None
    support: np.ndarray | None = field(default=None, repr=False)
    # the ``Graph.edge_state`` the support was counted for; None: recount
    counted_for: object = field(default=None, repr=False)

    def copy(self) -> "CoreMap":
        support = None if self.support is None else self.support.copy()
        return CoreMap(self.values.copy(), support, self.counted_for)

    def of(self, g: Graph, label: int) -> int:
        return int(self.values[g.dense_of(label)])

    def as_label_dict(self, g: Graph) -> dict[int, int]:
        return dict(zip(g.labels().tolist(), self.values.tolist()))

    def fit_to(self, g: Graph):
        """Extend with core 0, and support 0, for vertices created since
        the map was made.

        Raises ValueError, changing nothing, if the map has more entries
        than ``g`` has vertices or if a vertex it would pad has edges.
        """
        n, have = g.vertex_count, len(self.values)
        if have > n:
            raise ValueError(f"core map has {have} entries, graph has "
                             f"{n} vertices")
        if have < n:
            _, lens, _ = g.adjacency_arrays()
            if lens[have:].any():
                raise ValueError(f"core map covers {have} of {n} vertices "
                                 f"and a vertex beyond it has edges")
            self.values = _padded(self.values, n)
            if self.support is not None:
                self.support = _padded(self.support, n)

    def __eq__(self, other):
        """Equal core numbers; the support follows from them."""
        if not isinstance(other, CoreMap):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __len__(self):
        return len(self.values)


def _padded(a: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int32)
    out[:len(a)] = a
    return out


def peel(g: Graph, backend: str | None = None) -> CoreMap:
    """Exact core numbers by bucket peeling, O(n + m), and their support
    (one more pass over the edges)."""
    arrays = g.adjacency_arrays()
    kern = get_backend(backend)
    values = kern.peel_kernel(g.vertex_count, *arrays)
    return CoreMap(values, kern.count_support(*arrays, values), g.edge_state)


# ----------------------------------------------------------------------
# core output files: "external_vertex_id core_number", ascending id


def write_core_file(path, g: Graph, cores: CoreMap):
    labels = g.labels()
    order = np.argsort(labels)
    _write_rows(path, labels[order], cores.values[order])


def read_core_file(path) -> np.ndarray:
    """The (label, core) rows of a core file, parsed by ``read_edge_pairs``,
    as an (m, 2) int64 array in file order.  Raises ValueError naming the
    line for a line that is not two integers in 0..2**63-1 and for a label
    listed twice (the line of the repeat)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        rows, _ = read_edge_pairs(data)
    except EdgeListParseError as err:
        raise ValueError(f"core file line {err.line_no}: expected two "
                         f"non-negative integers") from None
    labels = rows[:, 0]
    order = labels.argsort(kind="stable")
    later = order[1:][labels[order[1:]] == labels[order[:-1]]]
    if len(later):
        row = int(later.min())  # the first row that repeats a label
        pair_lines = [no for no, line in enumerate(_text_lines(data), 1)
                      if line.strip()[:1] not in ("", "#")]
        raise ValueError(f"core file line {pair_lines[row]}: vertex "
                         f"{labels[row]} listed twice")
    return rows
