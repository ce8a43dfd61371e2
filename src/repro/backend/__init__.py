"""Compute backends.

StreamBrain ships hand-tuned OpenMP/SIMD, MPI, CUDA and FPGA backends behind
one kernel interface.  None of those targets exist in this environment, so
this package provides:

* :class:`~repro.backend.numpy_backend.NumpyBackend` — the reference
  BLAS-backed implementation (what StreamBrain calls the "numpy" backend).
* :class:`~repro.backend.lowprec.LowPrecisionBackend` — float32 / float16 /
  posit-style quantisation wrapper, standing in for the FPGA
  reduced-precision backend.
* :mod:`~repro.backend.distributed` — the SPMD
  :class:`~repro.backend.distributed.DistributedTrainer`, which runs real
  thread/tcp/MPI ranks over :mod:`repro.comm`.  Multi-core and multi-host
  parallelism comes from those ranks, not from a backend.

Backends are obtained by name through :func:`get_backend`.
"""

from repro.backend.base import Backend, KernelStatistics
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.lowprec import LowPrecisionBackend, posit_round
from repro.backend.registry import get_backend, list_backends
from repro.backend.distributed import DistributedTrainer, split_ranks

__all__ = [
    "Backend",
    "KernelStatistics",
    "NumpyBackend",
    "LowPrecisionBackend",
    "posit_round",
    "get_backend",
    "list_backends",
    "DistributedTrainer",
    "split_ranks",
]
