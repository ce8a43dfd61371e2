"""Backend registry: obtain compute backends by name.

``numpy`` is the float64 reference; ``float32``, ``float16`` and ``posit16``
run the same kernels and round every result to that representation (the
paper's reduced-precision study).  Names are matched exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.backend.base import Backend
from repro.backend.lowprec import LowPrecisionBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.exceptions import BackendError

__all__ = ["get_backend", "list_backends"]

_REGISTRY: Dict[str, Callable[[], Backend]] = {
    "numpy": NumpyBackend,
    "float32": lambda: LowPrecisionBackend("float32"),
    "float16": lambda: LowPrecisionBackend("float16"),
    "posit16": lambda: LowPrecisionBackend("posit16"),
}


def get_backend(backend: Union[str, Backend, None] = None) -> Backend:
    """Resolve a backend instance from a name, an instance, or ``None``.

    ``None`` returns the default :class:`NumpyBackend`.  Passing an existing
    :class:`Backend` instance returns it unchanged (so layers can share one).
    """
    if backend is None:
        return NumpyBackend()
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str):
        if backend not in _REGISTRY:
            raise BackendError(
                f"unknown backend '{backend}'; available: {sorted(_REGISTRY)}"
            )
        return _REGISTRY[backend]()
    raise BackendError(
        f"backend must be a name, a Backend instance or None, got {type(backend).__name__}"
    )


def list_backends() -> List[str]:
    """Names of all registered backends."""
    return sorted(_REGISTRY)
