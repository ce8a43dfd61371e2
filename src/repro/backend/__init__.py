"""Compute backends.

StreamBrain ships hand-tuned OpenMP/SIMD, MPI, CUDA and FPGA backends behind
one kernel interface.  None of those targets exist in this environment, so
this package provides:

* :class:`~repro.backend.numpy_backend.NumpyBackend` — the reference
  BLAS-backed implementation (what StreamBrain calls the "numpy" backend).
* :class:`~repro.backend.parallel.ParallelBackend` — batch-parallel trace
  accumulation over worker processes with shared-memory arrays, standing in
  for the OpenMP/threaded CPU backend.
* :mod:`~repro.backend.distributed` — the data-parallel layer over
  :mod:`repro.comm`: a rank-sharded simulation backend plus the SPMD
  :class:`~repro.backend.distributed.DistributedTrainer` that runs real
  thread/tcp/MPI ranks, standing in for the MPI backend.
* :class:`~repro.backend.lowprec.LowPrecisionBackend` — float16 / posit-style
  quantisation wrapper, standing in for the FPGA reduced-precision backend.

Backends are obtained by name through :func:`get_backend`.
"""

from repro.backend.base import Backend, KernelStatistics
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.lowprec import LowPrecisionBackend, posit_round
from repro.backend.parallel import ParallelBackend
from repro.backend.registry import get_backend, register_backend, list_backends
from repro.backend.distributed import (
    DistributedBackend,
    DistributedTrainer,
    split_ranks,
)

__all__ = [
    "Backend",
    "KernelStatistics",
    "NumpyBackend",
    "ParallelBackend",
    "LowPrecisionBackend",
    "DistributedBackend",
    "posit_round",
    "get_backend",
    "register_backend",
    "list_backends",
    "DistributedTrainer",
    "split_ranks",
]
