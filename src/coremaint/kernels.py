"""Kernel backend selection.

A backend is a module with the eight functions that ``_kernels_py``
describes: the peeling and per-level kernels, the round runner
(``run_levels``), the round planner's scan, edge removal, edge lookup and
the edge-list reader.  The compiled backend (``_kernels_c``, built from
``_kernels.c`` on first import and called through cffi) is preferred; the
pure-Python module is always available.  When the compiled lane cannot be built or cffi is missing,
``FALLBACK_REASON`` says why.  Override with the environment variable
COREMAINT_BACKEND=c|python, read once when this module is imported, or
pass backend="..." (or a backend object) to the operations that accept
one; every one of them resolves it with ``get_backend``.
"""

from __future__ import annotations

import os

from . import _kernels_py

BACKENDS = {"python": _kernels_py}
FALLBACK_REASON = ""  # why the compiled lane is missing; empty if it loaded

try:
    from . import _kernels_c

    BACKENDS["c"] = _kernels_c
except ImportError as exc:
    FALLBACK_REASON = f"compiled kernels unavailable ({exc})"

# the name None resolves to; an unknown one raises on first resolution
_DEFAULT = os.environ.get("COREMAINT_BACKEND",
                          "c" if "c" in BACKENDS else "python")


def available_backends() -> list[str]:
    return sorted(BACKENDS)


def get_backend(name=None):
    """Resolve a backend module by name (None picks the default); a
    backend object is returned as it is."""
    if name is None:
        name = _DEFAULT
    elif not isinstance(name, str):
        return name
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None


def default_backend_name() -> str:
    return get_backend().NAME
