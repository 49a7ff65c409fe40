"""Compiled backend: ``_kernels.c`` called through ctypes.

It has the five functions of the backend contract (see ``_kernels_py``):
the traversal kernels, the round planner's greedy scan (``plan_scan``)
and the removal of a round's edges from the adjacency blocks
(``remove_edges``).

Importing this module compiles the C file with the system C compiler
(``cc``) into ``__pycache__/`` next to it, keyed by a hash of the source
and flags, and loads the shared library; a new build deletes the builds
of earlier sources there.  A failed build raises ImportError with the
reason, and ``kernels`` then falls back to the pure-Python lane.  ctypes
releases the GIL for the duration of each foreign call, so per-level tasks
run in parallel.

The level kernels keep their per-vertex scratch in an arena owned by the
calling thread and kept across calls, so concurrent tasks never share
one; it grows when a graph has more vertices than it covers.

Every entry point checks dtypes, contiguity, lengths and edge endpoints
before it calls into C.  The adjacency contents themselves (pool entries,
block extents) are trusted: ``Graph`` keeps them consistent.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import threading
from pathlib import Path

import numpy as np

from ._kernels_py import _check_endpoints, _check_len

NAME = "c"

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("__pycache__")
_FLAGS = ("-std=c99", "-O3", "-shared", "-fPIC")
_UNSET = -1


def _compile(source: Path, target: Path):
    """Build the shared library at ``target``.  Writes to a temporary
    name first, so a concurrent importer never loads a half-written file."""
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(["cc", *_FLAGS, "-o", str(tmp), str(source)],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _remove_stale(current: Path):
    """Delete the other builds next to ``current``, best effort."""
    for old in current.parent.glob("_kernels.*.so"):
        if old != current:
            try:
                old.unlink()
            except OSError:
                pass


def _load() -> ctypes.CDLL:
    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()[:16]
    target = _CACHE / f"_kernels.{tag}.so"
    try:
        if not target.exists():
            _CACHE.mkdir(exist_ok=True)
            _compile(_SOURCE, target)
            _remove_stale(target)
        return ctypes.CDLL(str(target))
    except subprocess.CalledProcessError as exc:
        errors = [ln for ln in exc.stderr.splitlines() if "error" in ln]
        detail = errors[0] if errors else f"exit status {exc.returncode}"
        raise ImportError(f"cc failed: {detail}") from exc
    except OSError as exc:
        raise ImportError(f"{type(exc).__name__}: {exc}") from exc


_lib = _load()

_ptr = ctypes.c_void_p
_lib.cm_peel.argtypes = [ctypes.c_int64, _ptr, _ptr, _ptr, _ptr]
_lib.cm_peel.restype = ctypes.c_int
for _fn in (_lib.cm_insert_level, _lib.cm_delete_level):
    _fn.argtypes = [_ptr, _ptr, _ptr, _ptr, ctypes.c_int32, ctypes.c_int64,
                    _ptr, _ptr, _ptr, _ptr, _ptr]
    _fn.restype = ctypes.c_int64
_lib.cm_plan_scan.argtypes = [ctypes.c_int64, _ptr, _ptr, _ptr,
                              ctypes.c_int64, _ptr, _ptr]
_lib.cm_plan_scan.restype = ctypes.c_int
_lib.cm_remove_edges.argtypes = [ctypes.c_int64, _ptr, _ptr, _ptr, _ptr, _ptr]
_lib.cm_remove_edges.restype = ctypes.c_int


class _Arena(ctypes.Structure):
    _fields_ = [(name, _ptr)
                for name in ("visited", "removed", "slack", "sup", "csup")]


class _Scratch:
    """Per-vertex slots of the level kernels for vertices 0..n-1.  Between
    calls every slot holds its reset value; each call resets the slots it
    wrote before it returns."""

    def __init__(self, n: int):
        self.n = n
        self.visited = np.zeros(n, dtype=np.uint8)
        self.removed = np.zeros(n, dtype=np.uint8)
        self.slack = np.zeros(n, dtype=np.int32)
        self.sup = np.full(n, _UNSET, dtype=np.int32)
        self.csup = np.full(n, _UNSET, dtype=np.int32)
        self.ref = ctypes.byref(_Arena(*(getattr(self, f).ctypes.data
                                         for f, _ in _Arena._fields_)))


_threads = threading.local()  # .arena: the calling thread's _Scratch


def _arena(n: int) -> _Scratch:
    """The calling thread's arena, grown (at least doubled) to cover n
    vertices."""
    have = getattr(_threads, "arena", None)
    if have is None or have.n < n:
        have = _threads.arena = _Scratch(max(n, 2 * have.n if have else 0))
    return have


def _check(name: str, a, dtype, length: int | None = None):
    if not isinstance(a, np.ndarray) or a.dtype != dtype:
        raise TypeError(f"{name} must be a numpy {np.dtype(dtype).name} "
                        f"array, got {getattr(a, 'dtype', type(a).__name__)}")
    if a.ndim != 1 or not a.flags.c_contiguous:
        raise TypeError(f"{name} must be one-dimensional and C-contiguous")
    if length is not None:
        _check_len(name, a, length)


def _check_graph(starts, lens, pool) -> int:
    _check("starts", starts, np.int64)
    n = len(starts)
    _check("lens", lens, np.int32, n)
    _check("pool", pool, np.int32)
    return n


def peel_kernel(n, starts, lens, pool):
    n = int(n)
    if _check_graph(starts, lens, pool) != n:
        raise ValueError(f"adjacency arrays cover {len(starts)} vertices, "
                         f"expected {n}")
    cores = np.zeros(n, dtype=np.int32)
    if n and _lib.cm_peel(n, starts.ctypes.data, lens.ctypes.data,
                          pool.ctypes.data, cores.ctypes.data):
        raise MemoryError("peel_kernel allocation failed")
    return cores


def _level(fn, starts, lens, pool, cores, k, eu, ev):
    n = _check_graph(starts, lens, pool)
    _check("cores", cores, np.int32, n)
    _check("eu", eu, np.int32)
    _check("ev", ev, np.int32, len(eu))
    _check_endpoints(n, eu, ev)
    moved = np.empty(n, dtype=np.int32)
    ctr = np.zeros(5, dtype=np.int64)
    cnt = fn(starts.ctypes.data, lens.ctypes.data, pool.ctypes.data,
             cores.ctypes.data, int(k), len(eu), eu.ctypes.data,
             ev.ctypes.data, _arena(n).ref, moved.ctypes.data,
             ctr.ctypes.data)
    if cnt < 0:
        # a failed push can leave a written slot off the reset list
        del _threads.arena
        raise MemoryError(f"{fn.__name__} allocation failed")
    return np.sort(moved[:cnt]), tuple(ctr.tolist())


def insert_level(starts, lens, pool, cores, k, eu, ev):
    """Vertices of core level k that rise after the level's edges were
    inserted.  Returns (ascending id array, counter tuple)."""
    return _level(_lib.cm_insert_level, starts, lens, pool, cores, k, eu, ev)


def delete_level(starts, lens, pool, cores, k, eu, ev):
    """Vertices of core level k that fall after the level's edges were
    deleted.  Returns (ascending id array, counter tuple)."""
    return _level(_lib.cm_delete_level, starts, lens, pool, cores, k, eu, ev)


def plan_scan(us, vs, cores, exists=None):
    """As ``_kernels_py.plan_scan``."""
    _check("us", us, np.int32)
    m = len(us)
    _check("vs", vs, np.int32, m)
    _check("cores", cores, np.int32)
    if exists is not None:
        _check("exists", exists, np.bool_, m)
    _check_endpoints(len(cores), us, vs)
    status = np.empty(m, dtype=np.int8)
    if _lib.cm_plan_scan(m, us.ctypes.data, vs.ctypes.data,
                         cores.ctypes.data, len(cores),
                         None if exists is None else exists.ctypes.data,
                         status.ctypes.data):
        raise MemoryError("plan_scan allocation failed")
    return status


def remove_edges(starts, lens, pool, src, dst):
    """As ``_kernels_py.remove_edges``."""
    n = _check_graph(starts, lens, pool)
    _check("src", src, np.int32)
    _check("dst", dst, np.int32, len(src))
    _check_endpoints(n, src, dst)
    err = _lib.cm_remove_edges(len(src), src.ctypes.data, dst.ctypes.data,
                               starts.ctypes.data, lens.ctypes.data,
                               pool.ctypes.data)
    if err == -2:
        raise ValueError("pairs to remove must be grouped by ascending "
                         "source with ascending targets")
    if err:
        raise ValueError("edges to remove must be distinct edges of the "
                         "graph")
