"""Exception hierarchy used across the :mod:`repro` package.

Keeping a small, explicit hierarchy makes it possible for callers to
distinguish configuration mistakes (``ConfigurationError``) from data
problems (``DataError``) and from internal invariant violations
(``BackendError``, ``SerializationError``) without string matching.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a user-supplied hyper-parameter or option is invalid."""


class ConfigError(ConfigurationError):
    """Raised by :mod:`repro.config` on invalid experiment configurations.

    Unlike the generic :class:`ConfigurationError` it always carries the
    full dotted path to the offending field (``training.weight_refresh_tol``,
    ``hyperopt.space.model.density.low`` ...), so tooling — and humans
    running ``repro run`` — can point at exactly one line of the config.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = str(path)
        super().__init__(f"{self.path}: {message}")


class DataError(ReproError, ValueError):
    """Raised when input data fails validation (shape, dtype, encoding)."""


class NotFittedError(ReproError, RuntimeError):
    """Raised when prediction is requested from an untrained model."""


class BackendError(ReproError, RuntimeError):
    """Raised when a compute backend cannot execute the requested kernel."""


class SerializationError(DataError, RuntimeError):
    """Raised when a model state file cannot be written or restored.

    Subclasses :class:`DataError` so callers validating untrusted on-disk
    blobs (truncated downloads, corrupt model files) can catch one data
    category; the ``RuntimeError`` base is kept for backward compatibility.
    """


class CheckpointError(DataError):
    """Raised by :mod:`repro.checkpoint` on invalid or corrupt checkpoints.

    Always carries the filesystem path of the offending checkpoint (or
    manifest) so a failed resume points at exactly one file instead of a
    numpy traceback.
    """

    def __init__(self, path, message: str) -> None:
        self.path = str(path)
        super().__init__(f"{self.path}: {message}")


class FaultInjected(ReproError, RuntimeError):
    """Raised by :mod:`repro.faults` rules configured with ``mode=raise``.

    Lets in-process tests exercise driver-kill and I/O fault paths without
    actually terminating the interpreter.
    """


class SearchError(ReproError, RuntimeError):
    """Raised by the hyper-parameter search drivers on invalid usage."""


class VisualizationError(ReproError, RuntimeError):
    """Raised by the in-situ visualization pipeline."""
