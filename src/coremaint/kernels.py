"""Kernel backend selection.

A backend is a module with the five functions that ``_kernels_py``
describes: the peeling and per-level kernels, the round planner's scan
and edge removal.  The compiled backend (``_kernels_c``, built from
``_kernels.c`` on first import) is preferred; the pure-Python module is
always available.  When the compiled lane cannot be built,
``FALLBACK_REASON`` says why.  Override with the environment variable
COREMAINT_BACKEND=c|python, or pass backend="..." (or a backend object)
to the operations that accept one; every one of them resolves it with
``get_backend``.
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

_ENV_VAR = "COREMAINT_BACKEND"


def available_backends() -> list[str]:
    return sorted(BACKENDS)


def get_backend(name=None):
    """Resolve a backend module by name (None picks the default); a
    backend object is returned as it is."""
    if not isinstance(name, (str, type(None))):
        return name
    if name is None:
        name = os.environ.get(_ENV_VAR)
    if name is None:
        return BACKENDS.get("c", _kernels_py)
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None


def default_backend_name() -> str:
    return get_backend().NAME
