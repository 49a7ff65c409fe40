"""Compiled backend: ``_kernels.c`` called through cffi in ABI mode.

It has the six functions of the backend contract (see ``_kernels_py``):
the traversal kernels, the round planner's greedy scan (``plan_scan``),
the removal of a round's edges from the adjacency blocks
(``remove_edges``) and the edge lookup (``has_edges``).

Importing this module compiles the C file with the system C compiler
(``cc``) into ``__pycache__/`` next to it, keyed by a hash of the source
and flags, and opens the shared library with ``cffi.FFI.dlopen``; a new
build deletes the builds of earlier sources there.  A failed build, or a
missing ``cffi``, raises ImportError with the reason, and ``kernels`` then
falls back to the pure-Python lane.  cffi releases the GIL for the
duration of each foreign call, so per-level tasks run in parallel.

The level kernels keep their per-vertex scratch in an arena owned by the
calling thread and kept across calls, so concurrent tasks never share
one; it grows when a graph has more vertices than it covers.

Every entry point checks dtypes, contiguity and lengths before it calls
into C; the C code checks that every vertex id it is given lies in
0..n-1 before it writes anything.  The adjacency contents themselves
(pool entries, block extents) are trusted: ``Graph`` keeps them
consistent.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import threading
from pathlib import Path

import numpy as np

from ._kernels_py import _check_len

try:
    import cffi
except ImportError as exc:
    raise ImportError(f"cffi is not installed ({exc})") from exc

NAME = "c"

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("__pycache__")
_FLAGS = ("-std=c99", "-O3", "-shared", "-fPIC")
_UNSET = -1
_BAD_ORDER, _BAD_ENDPOINT = -2, -3  # error returns of the C entry points


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


def _load(ffi: cffi.FFI):
    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()[:16]
    target = _CACHE / f"_kernels.{tag}.so"
    try:
        if not target.exists():
            _CACHE.mkdir(exist_ok=True)
            _compile(_SOURCE, target)
            _remove_stale(target)
        return ffi.dlopen(str(target))
    except subprocess.CalledProcessError as exc:
        errors = [ln for ln in exc.stderr.splitlines() if "error" in ln]
        detail = errors[0] if errors else f"exit status {exc.returncode}"
        raise ImportError(f"cc failed: {detail}") from exc
    except OSError as exc:
        raise ImportError(f"{type(exc).__name__}: {exc}") from exc


_ffi = cffi.FFI()
_ffi.cdef("""
typedef struct {
    uint8_t *visited, *removed;
    int32_t *slack, *sup, *csup;
} Arena;
int cm_peel(int64_t n, const int64_t *starts, const int32_t *lens,
            const int32_t *pool, int32_t *out);
int64_t cm_insert_level(int64_t n, const int64_t *starts,
                        const int32_t *lens, const int32_t *pool,
                        const int32_t *cores, int32_t k, int64_t p,
                        const int32_t *eu, const int32_t *ev,
                        const Arena *arena, int32_t *moved, int64_t *ctr);
int64_t cm_delete_level(int64_t n, const int64_t *starts,
                        const int32_t *lens, const int32_t *pool,
                        const int32_t *cores, int32_t k, int64_t p,
                        const int32_t *eu, const int32_t *ev,
                        const Arena *arena, int32_t *moved, int64_t *ctr);
int cm_plan_scan(int64_t m, const int32_t *us, const int32_t *vs,
                 const int32_t *cores, int64_t n, const uint8_t *exists,
                 int8_t *status);
int cm_remove_edges(int64_t m, const int32_t *src, const int32_t *dst,
                    int64_t n, const int64_t *starts, int32_t *lens,
                    int32_t *pool);
int cm_has_edges(int64_t m, const int32_t *us, const int32_t *vs, int64_t n,
                 const int64_t *starts, const int32_t *lens,
                 const int32_t *pool, uint8_t *out);
""")
_lib = _load(_ffi)
_buf = _ffi.from_buffer
_I64, _I32, _BOOL = np.dtype(np.int64), np.dtype(np.int32), np.dtype(np.bool_)
_CTYPES = {_I64: "int64_t[]", _I32: "int32_t[]", _BOOL: "uint8_t[]",
           np.dtype(np.uint8): "uint8_t[]"}


class _Scratch:
    """Per-vertex slots of the level kernels for vertices 0..n-1, plus
    room for their output.  Between calls every slot holds its reset
    value; each call resets the slots it wrote before it returns."""

    def __init__(self, n: int):
        self.n = n
        self.visited = np.zeros(n, dtype=np.uint8)
        self.removed = np.zeros(n, dtype=np.uint8)
        self.slack = np.zeros(n, dtype=np.int32)
        self.sup = np.full(n, _UNSET, dtype=np.int32)
        self.csup = np.full(n, _UNSET, dtype=np.int32)
        self.moved = np.empty(n, dtype=np.int32)
        self.moved_ptr = _buf("int32_t[]", self.moved)
        # the struct's pointers; the views keep the arrays' buffers exported
        self._views = {f: _buf(_CTYPES[getattr(self, f).dtype],
                               getattr(self, f))
                       for f in ("visited", "removed", "slack", "sup", "csup")}
        self.ref = _ffi.new("Arena *", self._views)


_threads = threading.local()  # .arena: the calling thread's _Scratch


def _arena(n: int) -> _Scratch:
    """The calling thread's arena, grown (at least doubled) to cover n
    vertices."""
    have = getattr(_threads, "arena", None)
    if have is None or have.n < n:
        have = _threads.arena = _Scratch(max(n, 2 * have.n if have else 0))
    return have


def _ptr(name: str, a, dtype, length: int | None = None):
    """A C pointer to ``a``'s data, once ``a`` is checked to be a
    one-dimensional C-contiguous numpy array of ``dtype`` (and ``length``
    entries)."""
    if not isinstance(a, np.ndarray) or a.dtype != dtype:
        raise TypeError(f"{name} must be a numpy {dtype.name} "
                        f"array, got {getattr(a, 'dtype', type(a).__name__)}")
    if a.ndim != 1 or not a.flags.c_contiguous:
        raise TypeError(f"{name} must be one-dimensional and C-contiguous")
    if length is not None:
        _check_len(name, a, length)
    return _buf(_CTYPES[dtype], a)


def _graph_ptrs(starts, lens, pool):
    n = len(starts)
    return (n, _ptr("starts", starts, _I64), _ptr("lens", lens, _I32, n),
            _ptr("pool", pool, _I32))


def _raise_bad_endpoint(n: int):
    raise ValueError(f"edge endpoint outside 0..{n - 1}")


def peel_kernel(n, starts, lens, pool):
    n = int(n)
    have, *graph = _graph_ptrs(starts, lens, pool)
    if have != n:
        raise ValueError(f"adjacency arrays cover {have} vertices, "
                         f"expected {n}")
    cores = np.zeros(n, dtype=np.int32)
    if n and _lib.cm_peel(n, *graph, _buf("int32_t[]", cores)):
        raise MemoryError("peel_kernel allocation failed")
    return cores


def _level(fn, starts, lens, pool, cores, k, eu, ev):
    n, *graph = _graph_ptrs(starts, lens, pool)
    p = len(eu)
    args = (*graph, _ptr("cores", cores, _I32, n), int(k), p,
            _ptr("eu", eu, _I32), _ptr("ev", ev, _I32, p))
    arena = _arena(n)
    ctr = _ffi.new("int64_t[5]")
    cnt = fn(n, *args, arena.ref, arena.moved_ptr, ctr)
    if cnt == _BAD_ENDPOINT:
        _raise_bad_endpoint(n)
    if cnt < 0:
        # a failed push can leave a written slot off the reset list
        del _threads.arena
        raise MemoryError("level kernel allocation failed")
    return np.sort(arena.moved[:cnt]), tuple(ctr)


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
    m = len(us)
    args = (m, _ptr("us", us, _I32), _ptr("vs", vs, _I32, m),
            _ptr("cores", cores, _I32), len(cores),
            _ffi.NULL if exists is None else _ptr("exists", exists, _BOOL, m))
    status = np.empty(m, dtype=np.int8)
    err = _lib.cm_plan_scan(*args, _buf("int8_t[]", status))
    if err == _BAD_ENDPOINT:
        _raise_bad_endpoint(len(cores))
    if err:
        raise MemoryError("plan_scan allocation failed")
    return status


def remove_edges(starts, lens, pool, src, dst):
    """As ``_kernels_py.remove_edges``."""
    n, *graph = _graph_ptrs(starts, lens, pool)
    m = len(src)
    err = _lib.cm_remove_edges(m, _ptr("src", src, _I32),
                               _ptr("dst", dst, _I32, m), n, *graph)
    if err == _BAD_ENDPOINT:
        _raise_bad_endpoint(n)
    if err == _BAD_ORDER:
        raise ValueError("pairs to remove must be grouped by ascending "
                         "source with ascending targets")
    if err:
        raise ValueError("edges to remove must be distinct edges of the "
                         "graph")


def has_edges(starts, lens, pool, us, vs):
    """As ``_kernels_py.has_edges``."""
    n, *graph = _graph_ptrs(starts, lens, pool)
    m = len(us)
    args = (m, _ptr("us", us, _I32), _ptr("vs", vs, _I32, m), n, *graph)
    out = np.empty(m, dtype=np.bool_)
    if _lib.cm_has_edges(*args, _buf("uint8_t[]", out)):
        _raise_bad_endpoint(n)
    return out
