"""Kernel backend selection.

The compiled kernels (``_kernels.c``, built on first import) are preferred;
the pure-Python module is always available.  When the compiled lane cannot
be built, ``FALLBACK_REASON`` says why.  Override with the environment
variable COREMAINT_BACKEND=c|python, or pass backend="..." to the
operations that accept one.  The backend also picks the lane of the round
planner's scan and of edge removal: the compiled module has both, and any
other backend uses their Python lane (``batch.py``, ``graph.py``).
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


def get_backend(name: str | None = None):
    """Resolve a backend module by name (None picks the default)."""
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


def compiled_lane(backend=None):
    """The compiled module if ``backend`` (a name, None for the default, or
    a backend module) resolves to it, else None."""
    if isinstance(backend, (str, type(None))):
        backend = get_backend(backend)
    return backend if backend is BACKENDS.get("c") else None
