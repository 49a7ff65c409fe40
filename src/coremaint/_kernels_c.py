"""Compiled backend: ``_kernels.c`` called through cffi in ABI mode.

It keeps the backend contract described in ``_kernels_py``.

Importing this module compiles the C file with the system C compiler
(``cc``, with ``-pthread``) into ``__pycache__/`` next to it, keyed by a
hash of the source and flags, and opens the shared library with
``cffi.FFI.dlopen``; a new build deletes the builds of earlier sources
there.  A failed build, or a missing ``cffi``, raises ImportError with the
reason, and ``kernels`` then falls back to the pure-Python lane.  cffi
releases the GIL for the duration of each foreign call.

``run_levels`` is the only way into the level kernels: it runs all level
tasks of a round in one foreign call, the calling thread taking the
heaviest level and, with up to ``min(workers, levels) - 1`` helper
threads of the C code, the rest.  The helpers start on first need and
serve every later round of the process.  ``insert_level`` and
``delete_level`` are one-level rounds on the calling thread.  The C code
owns every arena and grows it; a level task allocates nothing else.  This
module only holds each calling thread's arena as an opaque handle, freed
with the thread.

Every entry point checks dtypes, contiguity and lengths (``parse_pairs``:
that it was given ``bytes``) before it calls into C; the C code checks
that every vertex id it is given lies in 0..n-1, and that every edge of a
level lies at that level, before it writes anything.  The adjacency
contents themselves (pool entries, block extents) are trusted: ``Graph``
keeps them consistent.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import threading
from itertools import accumulate
from pathlib import Path

import numpy as np

from ._kernels_py import (LevelTaskError, _check_len, _check_round,
                          _claim_order)

try:
    import cffi
except ImportError as exc:
    raise ImportError(f"cffi is not installed ({exc})") from exc

NAME = "c"

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("__pycache__")
_FLAGS = ("-std=c11", "-O3", "-shared", "-fPIC", "-pthread")
# return codes of the C entry points (``_error`` maps the errors)
_ALLOC_FAILED, _BAD_ORDER, _BAD_ENDPOINT, _NOT_EDGES = -1, -2, -3, -4
_NOT_MINE, _BAD_LEVEL = -5, -6
_ROW = 11  # int64 per level row of cm_run_levels: count, offset, 5
           # counters, wall ns, CPU ns, worker slot, peel survivors


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
    int32_t *order, *stack, *cascade, *dirty;
} Arena;
typedef struct {
    Arena a;
    int64_t cap;
} OwnArena;
void cm_arena_drop(OwnArena *o);
int cm_peel(int64_t n, const int64_t *starts, const int32_t *lens,
            const int32_t *pool, int32_t *out);
void cm_run_levels(int insert, int64_t n, const int64_t *starts,
                   const int32_t *lens, const int32_t *pool,
                   const int32_t *cores, int64_t levels,
                   const int64_t *meta, const int32_t *edges,
                   int64_t helpers_wanted, OwnArena *caller, int32_t *out,
                   int64_t *rows);
int cm_plan_scan(int64_t m, const int32_t *us, const int32_t *vs,
                 const int32_t *cores, int64_t n, int8_t *status);
int cm_remove_edges(int64_t m, const int32_t *src, const int32_t *dst,
                    int64_t n, const int64_t *starts, int32_t *lens,
                    int32_t *pool);
int cm_has_edges(int64_t m, const int32_t *us, const int32_t *vs, int64_t n,
                 const int64_t *starts, const int32_t *lens,
                 const int32_t *pool, uint8_t *out);
int64_t cm_parse_pairs(const char *data, int64_t len, int64_t *out,
                       int64_t cap, int64_t *comments);
""")
_lib = _load(_ffi)
_buf = _ffi.from_buffer
_I64, _I32 = np.dtype(np.int64), np.dtype(np.int32)
_CTYPES = {_I64: "int64_t[]", _I32: "int32_t[]"}


class _Thread(threading.local):
    """``arena``: the calling thread's level-kernel arena, which the C code
    grows and resets; freed with the thread."""

    def __init__(self):
        self.arena = _ffi.gc(_ffi.new("OwnArena *"), _lib.cm_arena_drop)


_threads = _Thread()


def _check_array(name: str, a, dtype, length: int | None = None):
    """Raise unless ``a`` is a one-dimensional C-contiguous numpy array of
    ``dtype`` (and ``length`` entries)."""
    if not isinstance(a, np.ndarray) or a.dtype != dtype:
        raise TypeError(f"{name} must be a numpy {dtype.name} "
                        f"array, got {getattr(a, 'dtype', type(a).__name__)}")
    if a.ndim != 1 or not a.flags.c_contiguous:
        raise TypeError(f"{name} must be one-dimensional and C-contiguous")
    if length is not None:
        _check_len(name, a, length)


def _ptr(name: str, a, dtype, length: int | None = None):
    """A C pointer to ``a``'s data, once ``_check_array`` passes."""
    _check_array(name, a, dtype, length)
    return _buf(_CTYPES[dtype], a)


def _graph_ptrs(starts, lens, pool):
    n = len(starts)
    return (n, _ptr("starts", starts, _I64), _ptr("lens", lens, _I32, n),
            _ptr("pool", pool, _I32))


def _error(code: int, call: str, n: int, k: int | None = None) -> Exception:
    """The exception for error ``code`` of the C entry point behind
    ``call``, on a graph of ``n`` vertices (level ``k`` for a level task)."""
    if code == _ALLOC_FAILED:
        return MemoryError(f"{call} allocation failed")
    if code == _BAD_ORDER:
        return ValueError("pairs to remove must be grouped by ascending "
                          "source with ascending targets")
    if code == _BAD_ENDPOINT:
        return ValueError(f"edge endpoint outside 0..{n - 1}")
    if code == _NOT_EDGES:
        return ValueError("edges to remove must be distinct edges of the "
                          "graph")
    if code == _BAD_LEVEL:
        return ValueError(f"edge not at level {k}")
    return RuntimeError(f"{call} returned unknown code {code}")


def _check_return(code: int, call: str, n: int):
    if code:
        raise _error(code, call, n)


def peel_kernel(n, starts, lens, pool):
    n = int(n)
    have, *graph = _graph_ptrs(starts, lens, pool)
    if have != n:
        raise ValueError(f"adjacency arrays cover {have} vertices, "
                         f"expected {n}")
    cores = np.zeros(n, dtype=np.int32)
    if n:
        _check_return(_lib.cm_peel(n, *graph, _buf("int32_t[]", cores)),
                      "peel_kernel", n)
    return cores


def _one_level(mode, starts, lens, pool, cores, k, eu, ev):
    """Level k alone, as a one-level round on the calling thread."""
    try:
        (_, moved, counters, *_), = run_levels(
            mode, starts, lens, pool, cores, {k: (eu, ev)}, 1)
    except LevelTaskError as exc:
        raise exc.__cause__ from None
    return moved, counters


def insert_level(starts, lens, pool, cores, k, eu, ev):
    """As ``_kernels_py.insert_level``."""
    return _one_level("insert", starts, lens, pool, cores, k, eu, ev)


def delete_level(starts, lens, pool, cores, k, eu, ev):
    """As ``_kernels_py.delete_level``."""
    return _one_level("delete", starts, lens, pool, cores, k, eu, ev)


def run_levels(mode, starts, lens, pool, cores, level_edges, workers):
    """As ``_kernels_py.run_levels``, in one foreign call: the calling
    thread runs the heaviest level, and it and up to ``min(workers,
    levels) - 1`` helper threads claim the rest."""
    _check_round(mode, workers)
    n, *graph = _graph_ptrs(starts, lens, pool)
    cores_ptr = _ptr("cores", cores, _I32, n)
    ks = _claim_order(level_edges)
    if not ks:
        return []
    for k in ks:
        eu, ev = level_edges[k]
        try:
            _check_array("eu", eu, _I32)
            _check_array("ev", ev, _I32, len(eu))
        except (TypeError, ValueError) as exc:
            raise LevelTaskError(k, exc) from exc
    parts = [a for k in ks for a in level_edges[k]]
    # the levels, then their edge offsets; each level's eu, then its ev
    meta = np.array([*ks, 0, *accumulate(map(len, parts[::2]))],
                    dtype=np.int64)
    edges = np.concatenate(parts)
    rows = np.zeros((len(ks), _ROW), dtype=np.int64)
    out = np.empty(n, dtype=np.int32)
    _lib.cm_run_levels(mode == "insert", n, *graph, cores_ptr,
                       len(ks), _buf("int64_t[]", meta),
                       _buf("int32_t[]", edges),
                       min(workers, len(ks)) - 1, _threads.arena,
                       _buf("int32_t[]", out), _buf("int64_t[]", rows))
    table = rows.tolist()
    failed = [i for i, row in enumerate(table) if row[0] < 0]
    if failed:
        i = failed[0]
        exc = _error(table[i][0], "level kernel", n, ks[i])
        raise LevelTaskError(ks[i], exc) from exc
    return [(k, np.sort(out[row[1]:row[1] + row[0]]), tuple(row[2:7]),
             row[7], row[8], row[9], row[10])
            for k, row in sorted(zip(ks, table))]


def plan_scan(us, vs, cores):
    """As ``_kernels_py.plan_scan``."""
    m = len(us)
    args = (m, _ptr("us", us, _I32), _ptr("vs", vs, _I32, m),
            _ptr("cores", cores, _I32), len(cores))
    status = np.empty(m, dtype=np.int8)
    _check_return(_lib.cm_plan_scan(*args, _buf("int8_t[]", status)),
                  "plan_scan", len(cores))
    return status


def remove_edges(starts, lens, pool, src, dst):
    """As ``_kernels_py.remove_edges``."""
    n, *graph = _graph_ptrs(starts, lens, pool)
    m = len(src)
    _check_return(_lib.cm_remove_edges(m, _ptr("src", src, _I32),
                                       _ptr("dst", dst, _I32, m), n, *graph),
                  "remove_edges", n)


def has_edges(starts, lens, pool, us, vs):
    """As ``_kernels_py.has_edges``."""
    n, *graph = _graph_ptrs(starts, lens, pool)
    m = len(us)
    args = (m, _ptr("us", us, _I32), _ptr("vs", vs, _I32, m), n, *graph)
    out = np.empty(m, dtype=np.bool_)
    _check_return(_lib.cm_has_edges(*args, _buf("uint8_t[]", out)),
                  "has_edges", n)
    return out


def parse_pairs(data):
    """As ``_kernels_py.parse_pairs``, in one pass over ``data``."""
    if not isinstance(data, bytes):
        raise TypeError(f"data must be bytes, got {type(data).__name__}")
    rows = data.count(b"\n") + 1  # a pair per line at most
    out = np.empty((rows, 2), dtype=np.int64)
    comments = _ffi.new("int64_t *")
    m = _lib.cm_parse_pairs(_buf("char[]", data), len(data),
                            _buf("int64_t[]", out), rows, comments)
    if m == _NOT_MINE:
        return None
    return out[:m], comments[0]
