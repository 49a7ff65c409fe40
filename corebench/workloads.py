"""Seeded inputs and batch streams of the coremaint benchmark.

Graphs are generated here with numpy rather than by ``coremaint.gen``, so
an edit to the package's generators cannot change a workload.  Every edge
is a canonical label pair ``u < v``; the benchmark's mirror of the edge set
stores it as the integer key ``u * n + v``.

A workload runs in cycles.  Each cycle starts from the loaded edge set
(restored by copy, or for ``er-insert-bulk`` by deleting the batch it
inserted), so a faster program does more batches on the same graph rather
than drifting to a denser or sparser one.  The batches of cycle
``c`` are drawn from ``default_rng([seed, c])``, which makes the batch
sequence a function of the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def keys_to_pairs(keys: np.ndarray, n: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    return np.stack([keys // n, keys % n], axis=1)


def pairs_to_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return lo * n + hi


def sample_new_keys(rng: np.random.Generator, n: int, count: int,
                    present: np.ndarray) -> np.ndarray:
    """``count`` distinct uniformly random vertex pairs, as keys, none of
    them in the sorted key array ``present``; returned in draw order."""
    out = np.zeros(0, dtype=np.int64)
    while len(out) < count:
        u = rng.integers(0, n, 2 * count)
        v = rng.integers(0, n, 2 * count)
        keys = pairs_to_keys(np.stack([u, v], axis=1), n)[u != v]
        pos = np.searchsorted(present, keys)
        hit = pos < len(present)
        hit[hit] = present[pos[hit]] == keys[hit]
        keys = np.concatenate([out, keys[~hit]])
        _, first = np.unique(keys, return_index=True)
        out = keys[np.sort(first)]
    return out[:count]


def er_keys(rng: np.random.Generator, n: int, per_vertex: int) -> np.ndarray:
    """Erdős–Rényi graph with exactly ``per_vertex * n`` distinct edges."""
    return sample_new_keys(rng, n, per_vertex * n, np.zeros(0, np.int64))


def ba_keys(rng: np.random.Generator, n: int, attach: int) -> np.ndarray:
    """Preferential attachment: a clique on ``attach + 1`` vertices, then
    each new vertex joins ``attach`` distinct targets drawn proportionally
    to degree."""
    m0 = attach + 1
    lo, hi = np.triu_indices(m0, k=1)
    keys = [int(k) for k in lo * n + hi]
    ends = [v for v in range(m0) for _ in range(attach)]
    draws = rng.random(4 * attach * n)
    d = 0
    for v in range(m0, n):
        targets: set[int] = set()
        while len(targets) < attach:
            if d == len(draws):
                draws, d = rng.random(4 * attach * n), 0
            targets.add(ends[int(draws[d] * len(ends))])
            d += 1
        for t in sorted(targets):
            keys.append(t * n + v)
            ends.append(t)
            ends.append(v)
    return np.asarray(keys, dtype=np.int64)


def write_edge_list(path, keys: np.ndarray, n: int, header: str):
    pairs = keys_to_pairs(keys, n)
    with open(path, "wt", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("\n".join(map("{} {}".format, pairs[:, 0].tolist(),
                               pairs[:, 1].tolist())))
        fh.write("\n")


# ----------------------------------------------------------------------
# batch streams


class InsertUndo:
    """Insert ``batch`` uniformly random new edges, then delete them again,
    so every insert lands on the loaded edge set.  Between the two the
    stream asks for a ``peel`` check, because the delete could hide a wrong
    insert result."""

    def __init__(self, base: np.ndarray, spec: "Spec"):
        self.base, self.n, self.batch = np.sort(base), spec.n, spec.batch

    def cycle(self, state, rng):
        pairs = keys_to_pairs(
            sample_new_keys(rng, self.n, self.batch, self.base), self.n)
        yield "insert", pairs
        yield "check", None
        yield "delete", pairs

    def expected_keys(self) -> np.ndarray:
        return self.base


class DeleteRestore:
    """Delete ``batch`` edges sampled from the loaded graph; the next cycle
    first restores the loaded graph and cores by copy, outside the timing."""

    def __init__(self, base: np.ndarray, spec: "Spec"):
        self.base, self.n, self.batch = np.sort(base), spec.n, spec.batch
        self.gone = np.zeros(0, dtype=np.int64)

    def cycle(self, state, rng):
        if len(self.gone):
            state.reset()
        self.gone = np.sort(rng.choice(self.base, self.batch, replace=False))
        yield "delete", keys_to_pairs(self.gone, self.n)

    def expected_keys(self) -> np.ndarray:
        return np.setdiff1d(self.base, self.gone, assume_unique=True)


class Mixed:
    """``per_cycle`` small batches; a seeded fair coin makes each one an
    insert of new edges or a delete of existing ones.  Each cycle starts
    from the loaded graph, restored by copy outside the timing."""

    def __init__(self, base: np.ndarray, spec: "Spec"):
        self.base, self.n, self.batch = np.sort(base), spec.n, spec.batch
        self.per_cycle = spec.per_cycle
        self.started = False
        self._reset_mirror()

    def _reset_mirror(self):
        self.keys = self.base.tolist()
        self.pos = {k: i for i, k in enumerate(self.keys)}

    def _add(self, k: int):
        self.pos[k] = len(self.keys)
        self.keys.append(k)

    def _drop(self, k: int):
        i = self.pos.pop(k)
        last = self.keys.pop()
        if last != k:
            self.keys[i] = last
            self.pos[last] = i

    def cycle(self, state, rng):
        if self.started:
            state.reset()
            self._reset_mirror()
        self.started = True
        for _ in range(self.per_cycle):
            if rng.random() < 0.5:
                new: list[int] = []
                while len(new) < self.batch:
                    u, v = (int(x) for x in rng.integers(0, self.n, 2))
                    k = min(u, v) * self.n + max(u, v)
                    if u != v and k not in self.pos and k not in new:
                        new.append(k)
                for k in new:
                    self._add(k)
                yield "insert", keys_to_pairs(new, self.n)
            else:
                idx = rng.choice(len(self.keys), self.batch, replace=False)
                gone = [self.keys[i] for i in idx]
                for k in gone:
                    self._drop(k)
                yield "delete", keys_to_pairs(gone, self.n)

    def expected_keys(self) -> np.ndarray:
        return np.sort(np.asarray(self.keys, dtype=np.int64))


@dataclass(frozen=True)
class Spec:
    """One workload.  ``window`` is the number of cycles every run makes at
    least; the per-layer metrics and kernel counters cover exactly those
    cycles, so they repeat for a given seed."""

    name: str
    stream: type  # InsertUndo, DeleteRestore or Mixed
    graph: str  # "er" or "ba"
    n: int
    degree: int  # edges per vertex (er) or attachments per new vertex (ba)
    batch: int
    window: int
    per_cycle: int = 1  # batches per cycle of the mixed stream

    def base_keys(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([seed, 0x5EED])
        gen = er_keys if self.graph == "er" else ba_keys
        return gen(rng, self.n, self.degree)


WORKLOADS = {
    s.name: s for s in (
        Spec("er-insert-bulk", InsertUndo, "er", n=1 << 16, degree=8,
             batch=1000, window=3),
        Spec("er-delete-bulk", DeleteRestore, "er", n=1 << 18, degree=4,
             batch=20000, window=5),
        Spec("ba-mixed-small", Mixed, "ba", n=1 << 14, degree=4,
             batch=8, window=2, per_cycle=100),
    )
}
