"""Static core decomposition by linear-time peeling, and core files.

``peel`` is the initializer and the correctness yardstick for the dynamic
engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _write_rows
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


def read_core_file(path) -> dict[int, int]:
    """Core numbers by label from a core file.  Raises ValueError naming
    the line for a line that is not two non-negative integers and for a
    label listed twice."""
    out: dict[int, int] = {}
    with open(path, "rt", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                label, core = map(int, line.split())
            except ValueError:
                raise ValueError(f"core file line {line_no}: expected two "
                                 f"integers, got {line!r}") from None
            if label < 0 or core < 0:
                raise ValueError(f"core file line {line_no}: negative "
                                 f"value in {line!r}")
            if label in out:
                raise ValueError(f"core file line {line_no}: vertex "
                                 f"{label} listed twice")
            out[label] = core
    return out
