"""Static core decomposition by linear-time peeling, and core files.

``peel`` is the initializer and the correctness yardstick for the dynamic
engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (EdgeListParseError, Graph, _text_lines, _write_rows,
                    read_edge_pairs)
from .kernels import get_backend


@dataclass
class CoreMap:
    """Per-vertex core numbers, indexed by dense vertex id."""

    values: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))

    def copy(self) -> "CoreMap":
        return CoreMap(self.values.copy())

    def of(self, g: Graph, label: int) -> int:
        return int(self.values[g.dense_of(label)])

    def as_label_dict(self, g: Graph) -> dict[int, int]:
        return dict(zip(g.labels().tolist(), self.values.tolist()))

    def fit_to(self, g: Graph):
        """Extend with core 0 for vertices created since the map was made.

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
            out = np.zeros(n, dtype=np.int32)
            out[:have] = self.values
            self.values = out

    def __eq__(self, other):
        if not isinstance(other, CoreMap):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __len__(self):
        return len(self.values)


def peel(g: Graph, backend: str | None = None) -> CoreMap:
    """Exact core numbers by bucket peeling, O(n + m)."""
    starts, lens, pool = g.adjacency_arrays()
    kern = get_backend(backend)
    return CoreMap(kern.peel_kernel(g.vertex_count, starts, lens, pool))


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
