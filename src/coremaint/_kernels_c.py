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
serve every later round of the process; the task of the round's
``free`` level may peel its level (``level_peel``) in place of its
traversal.  ``insert_level`` and ``delete_level`` are one-level rounds
on the calling thread.  The C code owns every arena and grows it; a
level task allocates nothing else, and
``remove_edges`` groups its entries by source with a stable radix sort
of the sources and marks each group's targets in the calling thread's
arena.  This module only holds each calling thread's arena as an
opaque handle, freed with the thread, and the buffer the round writes its
moved ids to.

Each layer of a round is one foreign call, and the round's flat plan
crosses as the arrays ``plan_scan`` returned.  Every entry point checks
dtypes, contiguity and lengths (``parse_pairs``: that it was given
``bytes``) before it calls into C.  The long-lived arrays (a graph's
``starts``, ``lens`` and ``pool``, the cores and their support) are
checked and given a C pointer once per array object: ``_held`` keeps,
per argument name, a weak reference to the last array seen and a bare
pointer to its data, which keeps nothing alive.  The pointer is used only while the caller
passes that same live array again, and numpy refuses to resize a weakly
referenced array in place, so its data cannot have moved; a
replaced array (a grown pool, a relocated block table, a padded core
map) is a new object and is checked again.  So the cache pins no graph,
core map or plan that its owner has dropped.
The C code checks that every vertex id it is given lies in 0..n-1, that
a round's levels ascend with offsets that fit its pairs, and that every
pair of a level lies at that level, before it writes anything.  The
adjacency contents themselves (pool entries, block extents) are trusted:
``Graph`` keeps them consistent.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import threading
import weakref
from pathlib import Path

import numpy as np

from ._kernels_py import (_ORDER, COUNT, OFFSET, ROW, LevelTaskError,
                          _check_len, _check_round, _check_support,
                          _one_level)

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
    int32_t *slack, *csup;
    int32_t *order, *stack, *cascade, *dirty;
} Arena;
typedef struct {
    Arena a;
    int64_t cap;
} OwnArena;
void cm_arena_drop(OwnArena *o);
int cm_peel(int64_t n, const int64_t *starts, const int32_t *lens,
            const int32_t *pool, int32_t *out);
void cm_count_support(int64_t n, const int64_t *starts, const int32_t *lens,
                      const int32_t *pool, const int32_t *cores,
                      int32_t *out);
int64_t cm_run_levels(int insert, int64_t n, const int64_t *starts,
                      const int32_t *lens, const int32_t *pool,
                      const int32_t *cores, int32_t *support, int64_t levels,
                      const int64_t *ks, const int64_t *offsets, int64_t m,
                      const int32_t *us, const int32_t *vs,
                      int64_t free_level, int64_t helpers_wanted,
                      OwnArena *caller, int32_t *out, int64_t *rows);
int64_t cm_plan_scan(int64_t m, const int32_t *us, const int32_t *vs,
                     const uint8_t *alive, const int32_t *cores, int64_t n,
                     int64_t hold, int64_t free_level, int64_t *index,
                     int32_t *pairs, int64_t *tally);
int cm_remove_edges(int64_t m, const int32_t *us, const int32_t *vs,
                    int64_t n, const int64_t *starts, int32_t *lens,
                    int32_t *pool, OwnArena *o);
int cm_has_edges(int64_t m, const int32_t *us, const int32_t *vs, int64_t n,
                 const int64_t *starts, const int32_t *lens,
                 const int32_t *pool, uint8_t *out);
int64_t cm_parse_pairs(const char *data, int64_t len, int64_t *out,
                       int64_t cap, int64_t *comments);
""")
_lib = _load(_ffi)
_buf = _ffi.from_buffer
_I64, _I32, _BOOL = np.dtype(np.int64), np.dtype(np.int32), np.dtype(bool)
_CTYPES = {dtype: _ffi.typeof(name) for dtype, name in (
    (_I64, "int64_t[]"), (_I32, "int32_t[]"), (_BOOL, "uint8_t[]"))}
_PTYPES = {dtype: _ffi.typeof(name) for dtype, name in (
    (_I64, "int64_t *"), (_I32, "int32_t *"))}


class _Thread(threading.local):
    """``arena``: the calling thread's level-kernel arena, which the C code
    grows and resets; freed with the thread.  ``out``: the buffer its
    rounds write their moved ids to, grown to the graph, with its
    pointer."""

    def __init__(self):
        self.arena = _ffi.gc(_ffi.new("OwnArena *"), _lib.cm_arena_drop)
        self.out = np.zeros(0, dtype=np.int32)
        self.out_ptr = _buf(_CTYPES[_I32], self.out)


_threads = _Thread()
# argument name -> (a weak reference to the last array seen as it, its
# bare pointer); "graph" -> ((starts, lens, pool) references, (n, their
# pointers))
_held_ptrs: dict[str, tuple] = {}


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


def _bare(name: str, a, dtype, length: int | None = None):
    """``_ptr`` as a bare pointer, which does not keep ``a`` alive."""
    return _ffi.cast(_PTYPES[dtype], _ptr(name, a, dtype, length))


def _held(name: str, a, dtype, length: int | None = None):
    """``_ptr`` for an array that crosses more than once: checked and
    pointed to once per array object seen as argument ``name`` (the module
    docstring); its length is checked on every call."""
    seen = _held_ptrs.get(name)
    if seen is None or seen[0]() is not a:
        seen = _held_ptrs[name] = (weakref.ref(a), _bare(name, a, dtype))
    if length is not None:
        _check_len(name, a, length)
    return seen[1]


def _graph_ptrs(starts, lens, pool):
    """(n, starts, lens, pool pointers), made once per array triple."""
    seen = _held_ptrs.get("graph")
    if (seen is None or seen[0][0]() is not starts
            or seen[0][1]() is not lens or seen[0][2]() is not pool):
        n = len(starts)
        seen = _held_ptrs["graph"] = (
            tuple(map(weakref.ref, (starts, lens, pool))),
            (n, _bare("starts", starts, _I64), _bare("lens", lens, _I32, n),
             _bare("pool", pool, _I32)))
    return seen[1]


def _error(code: int, call: str, n: int, k: int | None = None) -> Exception:
    """The exception for error ``code`` of the C entry point behind
    ``call``, on a graph of ``n`` vertices (level ``k`` for a level task)."""
    if code == _ALLOC_FAILED:
        return MemoryError(f"{call} allocation failed")
    if code == _BAD_ORDER:
        return ValueError(_ORDER)
    if code == _BAD_ENDPOINT:
        return ValueError(f"edge endpoint outside 0..{n - 1}")
    if code == _NOT_EDGES:
        return ValueError("edges to remove must be distinct edges of the "
                          "graph")
    if code == _BAD_LEVEL:
        return ValueError(f"edge not at level {k}")
    return RuntimeError(f"{call} returned unknown code {code}")


def _check_return(code: int, call: str, n: int):
    if code < 0:
        raise _error(code, call, n)


def peel_kernel(n, starts, lens, pool):
    n = int(n)
    have, *graph = _graph_ptrs(starts, lens, pool)
    if have != n:
        raise ValueError(f"adjacency arrays cover {have} vertices, "
                         f"expected {n}")
    cores = np.zeros(n, dtype=np.int32)
    if n:
        _check_return(_lib.cm_peel(n, *graph, _buf(_CTYPES[_I32], cores)),
                      "peel_kernel", n)
    return cores


def count_support(starts, lens, pool, cores):
    """As ``_kernels_py.count_support``."""
    n, *graph = _graph_ptrs(starts, lens, pool)
    support = np.empty(n, dtype=np.int32)
    _lib.cm_count_support(n, *graph, _ptr("cores", cores, _I32, n),
                          _buf(_CTYPES[_I32], support))
    return support


def insert_level(starts, lens, pool, cores, support, k, eu, ev):
    """As ``_kernels_py.insert_level``."""
    return _one_level(run_levels, "insert", starts, lens, pool, cores,
                      support, k, eu, ev)


def delete_level(starts, lens, pool, cores, support, k, eu, ev):
    """As ``_kernels_py.delete_level``."""
    return _one_level(run_levels, "delete", starts, lens, pool, cores,
                      support, k, eu, ev)


def _out_buffer(n: int):
    """The calling thread's moved-id buffer and its pointer, grown to
    hold ``n`` ids."""
    t = _threads
    if len(t.out) < n:
        t.out = np.empty(max(n, 2 * len(t.out)), dtype=np.int32)
        t.out_ptr = _buf(_CTYPES[_I32], t.out)
    return t.out, t.out_ptr


def run_levels(mode, starts, lens, pool, cores, support, ks, offsets, us,
               vs, workers, free=-1):
    """As ``_kernels_py.run_levels``, in one foreign call: the calling
    thread runs the heaviest level, and it and up to ``min(workers,
    levels) - 1`` helper threads claim the rest.  Each level's ids are
    sorted here, once the call has returned."""
    _check_round(mode, workers)
    n, *graph = _graph_ptrs(starts, lens, pool)
    cores_ptr = _held("cores", cores, _I32, n)
    support_ptr = _held("support", support, _I32)
    _check_support(support, n)
    levels, m = len(ks), len(us)
    args = (levels, _held("ks", ks, _I64), _held("offsets", offsets, _I64,
                                                 levels + 1),
            m, _held("us", us, _I32), _held("vs", vs, _I32, m))
    rows = np.empty((levels, ROW), dtype=np.int64)
    if not levels:
        if len(us) or offsets[0]:
            raise ValueError(_ORDER)
        return np.zeros(0, dtype=np.int32), rows
    out, out_ptr = _out_buffer(n)
    total = _lib.cm_run_levels(mode == "insert", n, *graph, cores_ptr,
                               support_ptr, *args, free,
                               min(workers, levels) - 1, _threads.arena,
                               out_ptr, _buf(_CTYPES[_I64], rows))
    if total < 0:
        failed = (rows[:, COUNT] < 0).nonzero()[0]
        if not len(failed):
            raise _error(total, "run_levels", n)
        k = int(ks[failed[0]])
        exc = _error(int(rows[failed[0], COUNT]), "level kernel", n, k)
        raise LevelTaskError(k, exc) from exc
    moved = out[:total].copy()
    if total > 1:
        for row in rows.tolist():
            if row[COUNT] > 1:
                moved[row[OFFSET]:row[OFFSET] + row[COUNT]].sort()
    return moved, rows


def plan_scan(us, vs, alive, cores, hold=-1, free=-1):
    """As ``_kernels_py.plan_scan``.  The scan writes to buffers sized by
    the batch; the results are exact-size copies, so a kept plan holds
    only its own pairs, and their pointers are kept for the calls that
    read them (``_held``)."""
    m = len(us)
    args = (m, _held("us", us, _I32), _held("vs", vs, _I32, m),
            _ptr("alive", alive, _BOOL, m), _held("cores", cores, _I32),
            len(cores), hold, free)
    # picked, ks and offsets back to back, then the tally; the pairs
    index = np.empty(3 * m + 4, dtype=np.int64)
    ids = np.empty(2 * m, dtype=np.int32)
    at = _buf(_CTYPES[_I64], index)
    levels = _lib.cm_plan_scan(*args, at, _buf(_CTYPES[_I32], ids),
                               at + 3 * m + 1)
    _check_return(levels, "plan_scan", len(cores))
    *waiting, s = index[3 * m + 1:].tolist()
    head, flat = index[:s + 2 * levels + 1].copy(), ids[:2 * s].copy()
    # pointers made by arithmetic are bare, as ``_held`` keeps them
    at, pairs = _buf(_CTYPES[_I64], head), _buf(_CTYPES[_I32], flat)
    ks, offsets = head[s:s + levels], head[s + levels:]
    us, vs = flat[:s], flat[s:]
    _held_ptrs["ks"] = (weakref.ref(ks), at + s)
    _held_ptrs["offsets"] = (weakref.ref(offsets), at + s + levels)
    _held_ptrs["us"] = (weakref.ref(us), pairs + 0)
    _held_ptrs["vs"] = (weakref.ref(vs), pairs + s)
    return head[:s], ks, offsets, us, vs, tuple(waiting)


def remove_edges(starts, lens, pool, us, vs):
    """As ``_kernels_py.remove_edges``."""
    n, *graph = _graph_ptrs(starts, lens, pool)
    m = len(us)
    _check_return(_lib.cm_remove_edges(m, _held("us", us, _I32),
                                       _held("vs", vs, _I32, m), n, *graph,
                                       _threads.arena),
                  "remove_edges", n)


def has_edges(starts, lens, pool, us, vs):
    """As ``_kernels_py.has_edges``."""
    n, *graph = _graph_ptrs(starts, lens, pool)
    m = len(us)
    args = (m, _held("us", us, _I32), _held("vs", vs, _I32, m), n, *graph)
    out = np.empty(m, dtype=np.bool_)
    _check_return(_lib.cm_has_edges(*args, _buf(_CTYPES[_BOOL], out)),
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
